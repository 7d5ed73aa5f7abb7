package sim

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/scc"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
)

// Private-cache cluster organization — the paper's alternative design
// (Section 2.1): "separate per processor caches which are kept coherent
// over a high bandwidth intra-cluster bus. This organization has the
// advantage that the total cache bandwidth scales with the number of
// processors in the cluster. However, coherence misses and invalidation
// traffic ... can become a performance bottleneck."
//
// RunPrivate gives each processor a private cache of SCCBytes /
// ProcsPerCluster (equal total capacity per cluster), keeps every cache
// coherent with write-invalidate snooping, and serves misses from a
// same-cluster cache over the fast intra-cluster bus
// (IntraClusterLatency) or from memory/another cluster in MemLatency.
// Comparing Run and RunPrivate on the same program reproduces the
// paper's shared-vs-private cluster cache argument: the shared cache
// keeps one copy per cluster and turns intra-cluster sharing into hits,
// while private caches duplicate lines and pay coherence misses.

// IntraClusterLatency is the cache-to-cache transfer latency within a
// cluster in the private-cache organization (cycles). The intra-cluster
// bus is fast but a transfer still costs a handful of cycles.
const IntraClusterLatency = 20

// RunPrivate simulates the private-per-processor-cache organization.
func RunPrivate(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
	procs := cfg.Procs()
	if prog.Procs != procs {
		return nil, fmt.Errorf("sim: program %q generated for %d processors, config has %d",
			prog.Name, prog.Procs, procs)
	}
	comp, err := trace.Compile(prog)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if procs > 32 {
		return nil, fmt.Errorf("sim: private-cache mode supports at most 32 caches, config has %d", procs)
	}
	perProc := cfg.SCCBytes / cfg.ProcsPerCluster
	if perProc < cfg.Line()*cfg.Assoc {
		return nil, fmt.Errorf("sim: %d B per private cache is too small", perProc)
	}

	caches := make([]*cache.Cache, procs)
	invs := make([]snoop.Invalidator, procs)
	groups := make([]int, procs)
	for p := 0; p < procs; p++ {
		c, err := cache.NewWith(perProc, cfg.Assoc, cfg.Line(), cfg.ReplPolicy())
		if err != nil {
			return nil, fmt.Errorf("sim: private cache: %w", err)
		}
		caches[p] = c
		invs[p] = c
		groups[p] = p / cfg.ProcsPerCluster
	}
	bus := snoop.New(invs)
	bus.SetLineBytes(cfg.Line())
	bus.Occupancy = opts.BusOccupancy
	bus.MemBanks = opts.MemBanks
	bus.MemBankOccupancy = opts.MemBankOccupancy
	bus.GroupOf = groups
	bus.IntraLatency = IntraClusterLatency
	bus.ReserveLines(reserveLines(comp.MaxLineIndex(), cfg.Line()))

	// The invariant checker audits the same laws as the shared machine,
	// with each private cache standing in as a "cluster" (the bus indexes
	// presence per cache). The bank-occupancy law is skipped: private
	// caches have no banks, so Final.Bank stays nil.
	var ck *verify.Checker
	if opts.Verify != nil {
		cls := make([]verify.Cluster, procs)
		for p := range caches {
			cls[p] = caches[p]
		}
		ck = verify.NewChecker(opts.Verify, bus, cls, false)
		ck.SetLineBytes(cfg.Line())
		bus.Verifier = ck
	}

	res := &Result{
		Config:      cfg,
		ProcFinish:  make([]uint64, procs),
		ReadStall:   make([]uint64, procs),
		WriteStall:  make([]uint64, procs),
		BankStall:   make([]uint64, procs),
		BarrierWait: make([]uint64, procs),
		LockStall:   make([]uint64, procs),
		SCC:         make([]*cache.Stats, procs),
		SCCBank:     make([]*scc.Stats, procs),
	}

	// Per-processor write buffers.
	wbPending := make([][]uint64, procs)
	wbHead := make([]int, procs)
	depth := opts.wbDepth()
	locks := newLockTable()

	memAccess := func(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
		if ck != nil {
			ck.OnAccess(p)
		}
		cr := caches[p].Access(addr, kind)
		if cr.Evicted != cache.EvictedNone {
			bus.Evicted(now, p, cr.Evicted, cr.EvictedDirty)
		}
		if cr.Hit {
			if kind == mem.Write {
				bus.WriteShared(now, p, addr)
			}
			return now
		}
		ready := bus.Fetch(now, p, addr, kind)
		if kind == mem.Read {
			res.ReadStall[p] += ready - now
			return ready
		}
		// Buffered write (per-processor buffer).
		pend := wbPending[p]
		head := wbHead[p]
		for head < len(pend) && pend[head] <= now {
			head++
		}
		if head == len(pend) {
			pend = pend[:0]
			head = 0
		}
		if len(pend)-head >= depth {
			wait := pend[head] - now
			res.WriteStall[p] += wait
			now = pend[head]
			head++
		}
		wbPending[p] = append(pend, ready)
		wbHead[p] = head
		return now
	}

	access := func(p int, now uint64, r mem.Ref) (uint64, bool) {
		switch r.Kind {
		case mem.Lock:
			t := memAccess(p, now, r.Addr, mem.Read)
			if holder, held := locks.holder(r.Addr); held && holder != p {
				res.LockSpins++
				res.LockStall[p] += SpinInterval
				return t + SpinInterval, true
			}
			t = memAccess(p, t, r.Addr, mem.Write)
			locks.acquire(r.Addr, p)
			return t, false
		case mem.Unlock:
			t := memAccess(p, now, r.Addr, mem.Write)
			locks.release(r.Addr)
			return t, false
		default:
			return memAccess(p, now, r.Addr, r.Kind), false
		}
	}

	// Private-cache mode traces barrier waits only; the per-reference
	// event stream is a shared-SCC (Run/RunMultiprog) feature. Warmup
	// resets are likewise a shared-SCC feature (warmupAt = 0).
	clock := replay(comp.Streams, procs, res, opts.Tracer, 0, nil, access)
	copy(res.ProcFinish, clock)
	for _, t := range clock {
		if t > res.Cycles {
			res.Cycles = t
		}
	}
	for p := 0; p < procs; p++ {
		res.SCC[p] = caches[p].Stats()
		res.SCCBank[p] = &scc.Stats{BankAccesses: []uint64{caches[p].Stats().TotalAccesses()}}
	}
	res.Snoop = bus.Stats()
	if ck != nil {
		err := ck.FinishRun(verify.Final{
			Cycles:           res.Cycles,
			Refs:             res.Refs,
			ExpectedRefs:     comp.Refs(),
			Cache:            res.SCC,
			BankAccessCycles: sysmodel.BankAccessCycles,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: verification failed: %w", err)
		}
	}
	return res, nil
}
