// Package sim is the detailed multiprocessor cache simulator at the heart
// of the reproduction (Section 2.2.2 of the paper). It replays a
// trace.Program on a configured system — clusters of processors sharing
// banked SCCs, kept coherent over a snoopy invalidation bus — and accounts
// execution time per processor.
//
// Timing model (matching the paper's stated assumptions):
//
//   - Processors execute one instruction per cycle between memory
//     references (the load-latency penalty of deeper pipelines is applied
//     afterwards via the pipeline model, exactly as Section 5 does).
//   - An SCC access waits for its bank if the bank is busy; the bank then
//     services it in one cycle. SCC hits cost no additional stall.
//   - A miss fetches the line from memory or another SCC in a fixed 100
//     cycles. Read misses stall the processor; writes retire into a
//     finite write buffer and only stall when the buffer is full.
//   - Writes to lines shared by other clusters broadcast an invalidation.
//   - Processors synchronize at phase barriers; barrier wait is idle time.
//
// Processor streams are interleaved in global virtual-time order, the
// same conservative interleaving Tango-Lite provides.
//
// Concurrency contract: Run and RunMultiprog treat their inputs —
// trace.Program and []Process — as immutable; they only ever read the
// reference streams, and all mutable run state (caches, bus, write
// buffers, locks, statistics) is allocated per call. It is therefore
// safe to call Run concurrently from multiple goroutines against one
// shared Program (the design-space engine in internal/explorer does
// exactly this), and every such run returns identical results. This
// contract is enforced by a -race test (TestRunSharedProgramConcurrent).
package sim

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/scc"
	"sccsim/internal/sched"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
)

// Options tunes simulator behaviour beyond the architectural Config.
// The zero value is the paper's model.
type Options struct {
	// WriteBufferDepth is the number of outstanding writes a cluster can
	// have before further writes stall. 0 means the default of 8.
	// Negative means an infinite write buffer.
	WriteBufferDepth int
	// BusOccupancy, when positive, makes each bus transaction hold the
	// bus for that many cycles (ablation; the paper uses pure latency).
	BusOccupancy int
	// SwitchPenalty is the cycle cost charged when the multiprogramming
	// scheduler switches a processor to a different process (models
	// kernel overhead plus icache refill; see internal/icache for a
	// derived value). Ignored by Run.
	SwitchPenalty uint64
	// MemBanks/MemBankOccupancy, when positive, enable the banked
	// main-memory ablation: fetches to a busy memory bank queue instead
	// of completing in a flat 100 cycles.
	MemBanks         int
	MemBankOccupancy int
	// VictimEntries, when positive, attaches a fully-associative victim
	// buffer of that many lines to each SCC — an extension that recovers
	// most of the direct-mapped conflict misses. The private hierarchy
	// has no SCC, so there it is an error.
	VictimEntries int
	// WarmupRefs, when positive, zeroes all statistics after that many
	// references have executed, excluding cold-start effects from the
	// reported numbers (a methodology option; the paper measures whole
	// runs, which is the default here too). Timing is unaffected — only
	// the counters reset: cache, bank and bus statistics, stall cycles,
	// and the event counts LockSpins and Switches. It applies to Run and
	// RunMultiprog alike.
	WarmupRefs uint64
	// Tracer, when non-nil, receives a timeline event for every memory
	// reference, stall, bus transaction, lock operation and scheduling
	// decision (see EventKind). The tracer must be exclusive to this run.
	// nil (the default) disables tracing at near-zero cost.
	Tracer Tracer
	// Metrics, when non-nil, accumulates stall-duration histograms
	// (sim.bank_wait_cycles, sim.read_miss_cycles, sim.wb_stall_cycles)
	// into the registry. Registries are safe to share across concurrent
	// runs; nil (the default) disables collection at near-zero cost.
	Metrics *obs.Registry
	// Verify, when non-nil, attaches the coherence invariant checker
	// (internal/verify) to the run: every bus transaction is checked
	// against the protocol invariants as it happens, and at end of run
	// the presence table is audited against actual cache residency and
	// the statistics against their conservation laws. A violation makes
	// Run/RunMultiprog return an error describing it. The Options value
	// is read-only and may be shared across concurrent runs; nil (the
	// default) disables verification at near-zero cost — the same
	// nil-disabled contract as Tracer and Metrics.
	Verify *verify.Options
}

// DefaultWriteBufferDepth is the per-cluster write-buffer depth used when
// Options.WriteBufferDepth is zero.
const DefaultWriteBufferDepth = 8

func (o Options) wbDepth() int {
	switch {
	case o.WriteBufferDepth == 0:
		return DefaultWriteBufferDepth
	case o.WriteBufferDepth < 0:
		return 1 << 30
	default:
		return o.WriteBufferDepth
	}
}

// Result is the outcome of one simulation run.
type Result struct {
	// Config is the design point that was simulated.
	Config sysmodel.Config
	// Cycles is the program execution time: the finish time of the
	// slowest processor.
	Cycles uint64
	// Refs is the number of memory references simulated.
	Refs uint64
	// ProcFinish[p] is processor p's finish time.
	ProcFinish []uint64
	// ReadStall[p] is cycles processor p spent stalled on read misses.
	ReadStall []uint64
	// WriteStall[p] is cycles processor p stalled on a full write buffer.
	WriteStall []uint64
	// BankStall[p] is cycles processor p waited for busy SCC banks.
	BankStall []uint64
	// BarrierWait[p] is cycles processor p idled at phase barriers (or,
	// for multiprogramming, idled with no runnable process).
	BarrierWait []uint64
	// PhaseCycles[i] is the duration of phase i.
	PhaseCycles []uint64
	// SCC[i] is cluster i's cache statistics; SCCBank[i] its contention
	// statistics. For the private hierarchy both are per processor: SCC[p]
	// is processor p's private cache and SCCBank[p] a degenerate
	// single-bank record of its accesses.
	SCC     []*cache.Stats
	SCCBank []*scc.Stats
	// L1 is the per-processor L1 statistics of the hybrid hierarchy; nil
	// (and omitted from JSON) for every other organization.
	L1 []*cache.Stats `json:",omitempty"`
	// Snoop is the coherence-bus statistics.
	Snoop *snoop.Stats
	// Switches is the number of context switches (multiprogramming only).
	Switches uint64
	// LockStall[p] is cycles processor p spent spinning on held locks.
	LockStall []uint64
	// LockSpins counts spin iterations across all processors.
	LockSpins uint64
	// WarmupExcluded is the number of warmup references whose statistics
	// were discarded (0 unless Options.WarmupRefs was set).
	WarmupExcluded uint64
}

// AggregateSCC returns the sum of all clusters' cache statistics.
func (r *Result) AggregateSCC() cache.Stats {
	var s cache.Stats
	for _, cs := range r.SCC {
		s.Add(cs)
	}
	return s
}

// ReadMissRate returns the system-wide SCC read miss rate — the statistic
// the paper's Table 4 reports.
func (r *Result) ReadMissRate() float64 {
	s := r.AggregateSCC()
	return s.ReadMissRate()
}

// TotalReadStall returns read-miss stall cycles summed over processors.
func (r *Result) TotalReadStall() uint64 {
	var t uint64
	for _, v := range r.ReadStall {
		t += v
	}
	return t
}

// TotalBankStall returns bank-conflict stall cycles summed over processors.
func (r *Result) TotalBankStall() uint64 {
	var t uint64
	for _, v := range r.BankStall {
		t += v
	}
	return t
}

// SpinInterval is the re-test period of the test-and-test-and-set spin
// loop, in cycles.
const SpinInterval = 12

// lockTable tracks test-and-set lock ownership by lock-word address.
// An owner is what system.owner names: the processor under Run, the
// process under RunMultiprog.
type lockTable struct {
	held map[uint32]int
}

func newLockTable() *lockTable { return &lockTable{held: make(map[uint32]int)} }

// holder returns the owner and whether the lock is held.
func (lt *lockTable) holder(addr uint32) (int, bool) {
	p, ok := lt.held[addr]
	return p, ok
}

func (lt *lockTable) acquire(addr uint32, p int) { lt.held[addr] = p }
func (lt *lockTable) release(addr uint32)        { delete(lt.held, addr) }

// system is the assembled machine for one run, whatever the hierarchy.
// The snoopy bus connects one cache per bus index: cluster c's SCC in
// the shared and hybrid hierarchies, processor c's private cache in the
// private one. cluster[p] is processor p's bus index, so the miss,
// write-buffer, verification and statistics paths index caches the same
// way for every hierarchy (the oracle in internal/verify has the same
// shape); only a plain reference's first level differs (access).
type system struct {
	cfg  sysmodel.Config
	opts Options
	// lineShift is cfg.LineShift(), which evictions read per line.
	lineShift uint32
	// sccs[c] is cluster c's SCC; nil in the private hierarchy.
	sccs []*scc.SCC
	// private[p] is processor p's cache in the private hierarchy; nil
	// otherwise.
	private []*cache.Cache
	// l1[p] is processor p's write-through L1 in the hybrid hierarchy
	// and l1Stats[p] its statistics; both nil otherwise.
	l1      []*cache.Cache
	l1Stats []cache.Stats
	bus     *snoop.Bus
	// wbPending[c] holds completion times of bus index c's in-flight
	// buffered writes, a FIFO ring (issue times are non-decreasing).
	wbPending [][]uint64
	wbHead    []int
	locks     *lockTable
	// owner[p] is the lock owner processor p runs for: p itself under
	// replay, the running process under RunMultiprog (its scheduler's
	// current table). Only Lock and Unlock read it.
	owner []int
	res   *Result
	// cluster[p] is processor p's bus index, precomputed so the per-ref
	// hot path indexes a table instead of dividing by ProcsPerCluster.
	cluster []int32
	// tags[c] is cluster c's tag store (scc.Tags); the private
	// hierarchy has none. tagsDM reports that the SCCs are
	// direct-mapped, which picks the access's probe: cache.HitDM/MissDM
	// when set, HitAssoc/MissAssoc otherwise. victims reports that each
	// SCC has a victim buffer (Options.VictimEntries), the step missFrom
	// takes first.
	tags    []*cache.Cache
	tagsDM  bool
	victims bool

	// Instrumentation (all nil when disabled; every use is behind a
	// nil check so the uninstrumented hot path pays only the branch).
	tr           Tracer
	histBankWait *obs.LocalHistogram
	histReadMiss *obs.LocalHistogram
	histWBStall  *obs.LocalHistogram
	ck           *verify.Checker
}

// newSystem builds the machine cfg describes: the shared hierarchy's
// SCCs, the private hierarchy's per-processor caches, or the hybrid
// hierarchy's SCCs behind per-processor L1s.
func newSystem(cfg sysmodel.Config, opts Options) (*system, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier := cfg.HierarchyKind()
	if hier == sysmodel.HierarchyPrivate && opts.VictimEntries > 0 {
		return nil, fmt.Errorf("sim: VictimEntries attaches a victim buffer to each SCC; the %q hierarchy has no SCC (use %q or %q)",
			hier, sysmodel.HierarchyShared, sysmodel.HierarchyHybrid)
	}
	procs := cfg.Procs()
	n := cfg.Clusters // caches on the bus
	if hier == sysmodel.HierarchyPrivate {
		n = procs
	}
	s := &system{cfg: cfg, opts: opts, lineShift: cfg.LineShift(), locks: newLockTable(), cluster: make([]int32, procs), owner: make([]int, procs)}
	for p := range s.owner {
		s.owner[p] = p
	}
	invs := make([]snoop.Invalidator, n)
	cls := make([]verify.Cluster, n)
	var groups []int // private hierarchy: groups[c] is cache c's cluster
	if hier == sysmodel.HierarchyPrivate {
		perProc := cfg.SCCBytes / cfg.ProcsPerCluster
		s.private = make([]*cache.Cache, n)
		groups = make([]int, n)
		for p := range s.private {
			c, err := cache.NewWith(perProc, cfg.Assoc, cfg.Line(), cfg.ReplPolicy())
			if err != nil {
				return nil, fmt.Errorf("sim: private cache: %w", err)
			}
			s.private[p] = c
			invs[p] = c
			cls[p] = c
			s.cluster[p] = int32(p)
			groups[p] = p / cfg.ProcsPerCluster
		}
	} else {
		s.sccs = make([]*scc.SCC, n)
		s.tags = make([]*cache.Cache, n)
		s.tagsDM = cfg.Assoc == 1
		s.victims = opts.VictimEntries > 0
		for i := range s.sccs {
			sc, err := scc.NewWith(cfg.SCCBytes, cfg.Assoc, cfg.Banks(), cfg.Line(), cfg.ReplPolicy())
			if err != nil {
				return nil, err
			}
			if s.victims {
				sc.EnableVictimBuffer(opts.VictimEntries)
			}
			s.sccs[i] = sc
			s.tags[i] = sc.Tags()
			invs[i] = sc
			cls[i] = sc
		}
		for p := range s.cluster {
			s.cluster[p] = int32(p / cfg.ProcsPerCluster)
		}
	}
	if hier == sysmodel.HierarchyHybrid {
		s.l1 = make([]*cache.Cache, procs)
		s.l1Stats = make([]cache.Stats, procs)
		for p := range s.l1 {
			c, err := cache.NewWith(cfg.L1Size(), 1, cfg.Line(), sysmodel.ReplLRU)
			if err != nil {
				return nil, fmt.Errorf("sim: hybrid L1: %w", err)
			}
			s.l1[p] = c
		}
		for c := range invs {
			invs[c] = &hybridInv{s: s, c: c}
		}
	}
	s.bus = snoop.New(invs)
	s.bus.SetLineBytes(cfg.Line())
	s.bus.Occupancy = opts.BusOccupancy
	s.bus.MemBanks = opts.MemBanks
	s.bus.MemBankOccupancy = opts.MemBankOccupancy
	if groups != nil {
		// A miss that finds its line in a same-cluster cache crosses the
		// fast intra-cluster bus.
		s.bus.GroupOf, s.bus.IntraLatency = groups, IntraClusterLatency
	}
	s.wbPending = make([][]uint64, n)
	s.wbHead = make([]int, n)

	if opts.Verify != nil {
		s.ck = verify.NewChecker(opts.Verify, s.bus, cls, s.victims)
		s.ck.SetLineBytes(cfg.Line())
		s.bus.Verifier = s.ck
	}

	s.tr = opts.Tracer
	if s.tr != nil {
		// Bus transactions land on the requesting cluster's bus track,
		// laid out after the processor tracks; a private cache's land on
		// its cluster's.
		tr := s.tr
		s.bus.Hook = func(kind snoop.TxnKind, start, dur uint64, c int, addr uint32) {
			var k EventKind
			switch kind {
			case snoop.TxnFetch:
				k = EvBusFetch
			case snoop.TxnInvalidate:
				k = EvBusInvalidate
			default:
				k = EvBusWriteBack
			}
			if groups != nil {
				c = groups[c]
			}
			tr.Emit(obs.Event{TS: start, Dur: dur, Track: busTrack(procs, c),
				Kind: uint8(k), Addr: addr})
		}
	}
	if m := opts.Metrics; m != nil {
		// Local staging buffers: per-event observations stay plain
		// arithmetic in this run's goroutine, merged into the shared
		// registry once at the end of the run (see finish), so parallel
		// sweep workers never contend on the histogram atomics.
		s.histBankWait = m.Histogram("sim.bank_wait_cycles", obs.CycleBuckets).Local()
		s.histReadMiss = m.Histogram("sim.read_miss_cycles", obs.CycleBuckets).Local()
		s.histWBStall = m.Histogram("sim.wb_stall_cycles", obs.CycleBuckets).Local()
	}

	s.res = &Result{
		Config:      cfg,
		ProcFinish:  make([]uint64, procs),
		ReadStall:   make([]uint64, procs),
		WriteStall:  make([]uint64, procs),
		BankStall:   make([]uint64, procs),
		BarrierWait: make([]uint64, procs),
		LockStall:   make([]uint64, procs),
		SCC:         make([]*cache.Stats, n),
		SCCBank:     make([]*scc.Stats, n),
	}
	return s, nil
}

// clusterOf maps a processor index to its bus index.
func (s *system) clusterOf(p int) int { return int(s.cluster[p]) }

// directMapped reports whether replay and RunMultiprog perform plain
// references' SCC accesses in their own loops: the shared hierarchy
// with direct-mapped SCCs. The configuration, and nothing else, decides
// it.
func (s *system) directMapped() bool {
	return s.private == nil && s.l1 == nil && s.tagsDM
}

// warmupReset clears the statistics accumulated so far; replay and
// RunMultiprog invoke it exactly once, immediately after the
// Options.WarmupRefs'th reference completes (cold-start exclusion).
// Timing state is untouched.
func (s *system) warmupReset() {
	for _, sc := range s.sccs {
		*sc.CacheStats() = cache.Stats{}
		sc.ResetStats()
	}
	for _, c := range s.private {
		*c.Stats() = cache.Stats{}
	}
	clear(s.l1Stats)
	*s.bus.Stats() = snoop.Stats{}
	for p := range s.res.ReadStall {
		s.res.ReadStall[p] = 0
		s.res.WriteStall[p] = 0
		s.res.BankStall[p] = 0
		s.res.LockStall[p] = 0
	}
	s.res.LockSpins = 0
	s.res.Switches = 0
	s.res.WarmupExcluded = s.res.Refs
	if s.ck != nil {
		s.ck.OnWarmupReset()
	}
}

// access performs processor p's memory reference at time now, returning
// the time at which the processor may proceed and whether the reference
// must be retried (a spin iteration on a held lock).
func (s *system) access(p int, now uint64, r mem.Ref) (uint64, bool) {
	switch r.Kind {
	case mem.Lock:
		// Test-and-test-and-set: spin reading the cached lock word until
		// it is free, then claim it with an atomic write. Both are plain
		// references, so behind an L1 the spins hit the L1 copy until the
		// holder's release write invalidates it.
		owner := s.owner[p]
		t, _ := s.access(p, now, mem.Ref{Addr: r.Addr, Kind: mem.Read})
		if holder, held := s.locks.holder(r.Addr); held && holder != owner {
			s.res.LockSpins++
			s.res.LockStall[p] += SpinInterval
			if s.tr != nil {
				s.tr.Emit(obs.Event{TS: t, Dur: SpinInterval, Track: int32(p),
					Kind: uint8(EvLockSpin), Addr: r.Addr})
			}
			return t + SpinInterval, true
		}
		t, _ = s.access(p, t, mem.Ref{Addr: r.Addr, Kind: mem.Write})
		s.locks.acquire(r.Addr, owner)
		if s.ck != nil {
			s.ck.OnLockAcquire(t, owner, r.Addr)
		}
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvLockAcquire), Addr: r.Addr})
		}
		return t, false
	case mem.Unlock:
		t, _ := s.access(p, now, mem.Ref{Addr: r.Addr, Kind: mem.Write})
		s.locks.release(r.Addr)
		if s.ck != nil {
			s.ck.OnLockRelease(t, s.owner[p], r.Addr)
		}
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvLockRelease), Addr: r.Addr})
		}
		return t, false
	}
	// A plain load or store enters the hierarchy at its first level.
	switch {
	case s.l1 != nil:
		return s.l1Access(p, now, r.Addr, r.Kind), false
	case s.private != nil:
		return s.privateAccess(p, now, r.Addr, r.Kind), false
	}
	return s.memAccess(p, now, r.Addr, r.Kind), false
}

// memAccess performs a plain load or store through the cluster's SCC.
// Every SCC access takes the same steps: bank arbitration
// (scc.BankStart), the tag probe, and on a miss the tag store's fill
// and missFrom, where a victim buffer takes its step. replay and
// RunMultiprog perform the direct-mapped case in their own loops,
// because this function is over the inlining budget; the oracle
// (internal/verify) pins both. Here an ordinary direct-mapped hit runs
// call-free and a set-associative one costs one call; this path serves
// set-associative SCCs, locks and the hybrid hierarchy's L1 misses.
func (s *system) memAccess(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	c := s.clusterOf(p)
	if s.ck != nil {
		// Shadow-count the access so FinishRun can assert the tag store
		// accounted every access exactly once (hits + misses == accesses).
		s.ck.OnAccess(c)
	}
	tags := s.tags[c]
	t := s.sccs[c].BankStart(now, addr)
	if t != now {
		s.bankStallAt(p, now, t-now, addr)
	}
	var hit bool
	if s.tagsDM {
		hit = tags.HitDM(addr, kind)
	} else {
		hit = tags.HitAssoc(addr, kind)
	}
	if hit {
		if kind == mem.Write && s.bus.MaybeShared(addr, c) {
			// Write hit to a possibly-shared line: invalidate other
			// clusters' copies. The MaybeShared probe keeps the common
			// private-line write hit call-free.
			s.bus.WriteShared(t, c, addr)
		}
		if s.tr != nil {
			s.emitHit(p, t, addr, kind)
		}
		return t
	}
	if s.tagsDM {
		return s.missDM(p, c, t, addr, kind)
	}
	cr := tags.MissAssoc(addr, kind)
	return s.missFrom(p, c, t, addr, kind, cr.Evicted, cr.EvictedDirty)
}

// bankStallAt accounts a bank-arbitration wait for processor p.
func (s *system) bankStallAt(p int, now, wait uint64, addr uint32) {
	s.res.BankStall[p] += wait
	if s.tr != nil {
		s.tr.Emit(obs.Event{TS: now, Dur: wait, Track: int32(p),
			Kind: uint8(EvBankStall), Addr: addr})
	}
	if s.histBankWait != nil {
		s.histBankWait.Observe(wait)
	}
}

// emitHit traces an SCC hit event.
func (s *system) emitHit(p int, t uint64, addr uint32, kind mem.Kind) {
	k := EvReadHit
	if kind == mem.Write {
		k = EvWriteHit
	}
	s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(k), Addr: addr})
}

// missDM completes a direct-mapped access that cache.HitDM reported as
// a miss, with bank service started at t.
func (s *system) missDM(p, c int, t uint64, addr uint32, kind mem.Kind) uint64 {
	cr := s.tags[c].MissDM(addr, kind)
	return s.missFrom(p, c, t, addr, kind, cr.Evicted, cr.EvictedDirty)
}

// missFrom completes a miss whose bank service started at t: the victim
// buffer's step, eviction notice, bus fetch, and read-stall or
// write-buffer accounting.
func (s *system) missFrom(p, c int, t uint64, addr uint32, kind mem.Kind,
	evicted uint32, evictedDirty bool) uint64 {

	if s.victims {
		hit, gone := s.sccs[c].MissVictim(addr, kind, evicted, evictedDirty)
		if gone != cache.EvictedNone && s.l1 != nil {
			// Inclusion: the buffer pushed a parked line out of the SCC
			// without a bus notice, so its L1 copies go here.
			s.invalidateL1s(c, gone<<s.lineShift, -1)
		}
		if hit {
			// The buffer held the line: it swapped back without a bus
			// transaction, so the access completes as a hit.
			if kind == mem.Write {
				s.bus.WriteShared(t, c, addr)
			}
			if s.tr != nil {
				s.emitHit(p, t, addr, kind)
			}
			return t
		}
		// The displaced line is parked in the buffer, still in the SCC:
		// the bus hears no eviction.
		evicted = cache.EvictedNone
	}
	if evicted != cache.EvictedNone {
		if s.l1 != nil {
			// Inclusion: the line leaves the cluster's L1s before the bus
			// learns of it, so a bus-level probe never finds an L1-only
			// copy.
			s.invalidateL1s(c, evicted<<s.lineShift, -1)
		}
		s.bus.Evicted(t, c, evicted, evictedDirty)
	}
	// Fetch over the bus. The refill's own bank cycle is not modeled as
	// future bank occupancy: the bank-free time is a scalar "busy until",
	// and reserving it through the whole 100-cycle fetch would wrongly
	// block the bank during the fetch (the SCC is non-blocking). The one
	// refill cycle is negligible against the 100-cycle transfer.
	ready := s.bus.Fetch(t, c, addr, kind)
	if kind == mem.Read {
		s.res.ReadStall[p] += ready - t
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Dur: ready - t, Track: int32(p),
				Kind: uint8(EvReadMiss), Addr: addr})
		}
		if s.histReadMiss != nil {
			s.histReadMiss.Observe(ready - t)
		}
		return ready
	}
	// Write miss: retire into the write buffer; stall only if full.
	if s.tr != nil {
		s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvWriteMiss), Addr: addr})
	}
	return s.bufferWrite(p, c, t, ready)
}

// bufferWrite records a buffered write completing at ready and returns the
// processor-visible completion time (now, unless the buffer is full).
func (s *system) bufferWrite(p, c int, now, ready uint64) uint64 {
	depth := s.opts.wbDepth()
	pend := s.wbPending[c]
	head := s.wbHead[c]
	// Drop entries that completed by now.
	for head < len(pend) && pend[head] <= now {
		head++
	}
	if head == len(pend) {
		pend = pend[:0]
		head = 0
	}
	if len(pend)-head >= depth {
		// Buffer full: stall until the oldest entry drains.
		wait := pend[head] - now
		s.res.WriteStall[p] += wait
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: now, Dur: wait, Track: int32(p),
				Kind: uint8(EvWriteBufStall)})
		}
		if s.histWBStall != nil {
			s.histWBStall.Observe(wait)
		}
		now = pend[head]
		head++
	}
	pend = append(pend, ready)
	s.wbPending[c] = pend
	s.wbHead[c] = head
	return now
}

// replay drives barrier-delimited phase streams on s in global issue
// order, handling barriers and accounting into s.res. phases is the
// per-phase, per-processor stream table (trace.Compiled.Streams, the
// program's own stream slices). When s is direct-mapped
// (system.directMapped) the loop performs plain reads and writes
// itself, and only lock, unlock and the rare outcomes reach s.access or
// the system's slower paths. s.warmupReset runs exactly once,
// immediately after the Options.WarmupRefs'th reference completes. A
// tracer receives a barrier-wait event per processor per phase.
func replay(s *system, phases [][][]mem.Ref) []uint64 {
	procs := len(s.cluster)
	res, tr, warmupAt, dm := s.res, s.tr, s.opts.WarmupRefs, s.directMapped()
	clock := make([]uint64, procs)
	pos := make([]int, procs)
	tree := sched.NewTourney(procs)
	var phaseStart uint64

	for _, streams := range phases {
		for p := 0; p < procs; p++ {
			pos[p] = 0
			if len(streams[p]) > 0 {
				tree.Set(p, sched.Key(p, clock[p]+uint64(streams[p][0].Gap)))
			}
		}
		for {
			k := tree.Winner()
			if k == sched.NoKey {
				break
			}
			// Run ahead: the winner keeps issuing while its next key stays
			// below bound, every other processor's earliest key — exactly
			// the order of a scheduler consulted per reference, with the
			// tree touched only when the winner changes or finishes.
			p, t := sched.KeyProc(k), sched.KeyTime(k)
			bound := tree.RunnerUp(p)
			st, i := streams[p], pos[p]
			var c int
			var sc *scc.SCC
			var tags *cache.Cache
			if dm {
				c = s.clusterOf(p)
				sc, tags = s.sccs[c], s.tags[c]
			}
			for {
				if r := st[i]; r.Kind != mem.Idle {
					if tags != nil && r.Kind <= mem.Write {
						// The paper's SCC access, in line: bank arbitration,
						// the tag probe and the private-line write-hit
						// check. The same steps as memAccess on direct-mapped
						// tags, written here because that function is over
						// the inlining budget; the oracle pins both.
						if s.ck != nil {
							s.ck.OnAccess(c)
						}
						start := sc.BankStart(t, r.Addr)
						if start != t {
							s.bankStallAt(p, t, start-t, r.Addr)
						}
						if tags.HitDM(r.Addr, r.Kind) {
							if r.Kind == mem.Write && s.bus.MaybeShared(r.Addr, c) {
								s.bus.WriteShared(start, c, r.Addr)
							}
							if tr != nil {
								s.emitHit(p, start, r.Addr, r.Kind)
							}
							t = start
						} else {
							t = s.missDM(p, c, start, r.Addr, r.Kind)
						}
					} else {
						var retry bool
						if t, retry = s.access(p, t, r); retry {
							// Spin iteration: re-issue the same reference later.
							if k := sched.Key(p, t); k >= bound {
								pos[p] = i
								tree.Set(p, k)
								break
							}
							continue
						}
					}
					res.Refs++
					if res.Refs == warmupAt {
						s.warmupReset()
					}
				}
				if i++; i == len(st) {
					clock[p] = t
					tree.Set(p, sched.NoKey)
					break
				}
				t += uint64(st[i].Gap)
				if k := sched.Key(p, t); k >= bound {
					pos[p] = i
					tree.Set(p, k)
					break
				}
			}
		}
		// Barrier: everyone waits for the slowest processor.
		var maxT uint64
		for _, t := range clock {
			if t > maxT {
				maxT = t
			}
		}
		for p := range clock {
			if tr != nil && maxT > clock[p] {
				tr.Emit(obs.Event{TS: clock[p], Dur: maxT - clock[p], Track: int32(p),
					Kind: uint8(EvBarrierWait)})
			}
			res.BarrierWait[p] += maxT - clock[p]
			clock[p] = maxT
		}
		res.PhaseCycles = append(res.PhaseCycles, maxT-phaseStart)
		phaseStart = maxT
	}
	return clock
}

// Run simulates a parallel program on the configured system: the
// hierarchy axis selects the paper's shared SCC, per-processor private
// caches, or the two-level hybrid. The program must have exactly
// cfg.Procs() streams per phase. Run never mutates prog, so concurrent
// Runs may share one Program (see the package comment's concurrency
// contract); the compiled form a Run memoizes on the program
// (trace.Compile) is itself immutable and shared the same way.
func Run(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
	if procs := cfg.Procs(); prog.Procs != procs {
		return nil, fmt.Errorf("sim: program %q generated for %d processors, config has %d",
			prog.Name, prog.Procs, procs)
	}
	comp, err := trace.Compile(prog)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(cfg, opts)
	if err != nil {
		return nil, err
	}
	return s.finish(replay(s, comp.Streams), comp.Refs())
}

// VerifyStats projects the result onto the surface the oracle simulator
// reports (verify.RunStats), for DiffRunStats comparisons. Statistics
// slices are deep-copied, so the projection is safe to hold after the
// result is discarded.
func (r *Result) VerifyStats() verify.RunStats {
	rs := verify.RunStats{
		Cycles:      r.Cycles,
		Refs:        r.Refs,
		LockSpins:   r.LockSpins,
		Switches:    r.Switches,
		ProcFinish:  append([]uint64(nil), r.ProcFinish...),
		ReadStall:   append([]uint64(nil), r.ReadStall...),
		WriteStall:  append([]uint64(nil), r.WriteStall...),
		BankStall:   append([]uint64(nil), r.BankStall...),
		BarrierWait: append([]uint64(nil), r.BarrierWait...),
		LockStall:   append([]uint64(nil), r.LockStall...),
		PhaseCycles: append([]uint64(nil), r.PhaseCycles...),
	}
	for _, cs := range r.SCC {
		rs.Cache = append(rs.Cache, *cs)
	}
	for _, bs := range r.SCCBank {
		b := *bs
		b.BankAccesses = append([]uint64(nil), bs.BankAccesses...)
		rs.Bank = append(rs.Bank, b)
	}
	if r.Snoop != nil {
		rs.Bus = *r.Snoop
	}
	for _, ls := range r.L1 {
		rs.L1 = append(rs.L1, *ls)
	}
	return rs
}

// finish closes the run: it copies final per-processor state and the
// machine's statistics into the result, merges the staged histograms
// into the shared registry, and runs the checker's end-of-run audit
// (expectedRefs of 0 skips its trace-conservation check). The
// statistics are copied, not referenced, so a kept result does not hold
// the machine — tag stores, bank state, presence table — alive.
func (s *system) finish(clock []uint64, expectedRefs uint64) (*Result, error) {
	copy(s.res.ProcFinish, clock)
	for _, t := range clock {
		if t > s.res.Cycles {
			s.res.Cycles = t
		}
	}
	for i, sc := range s.sccs {
		s.res.SCC[i] = ptr(*sc.CacheStats())
		bs := *sc.Stats()
		bs.BankAccesses = append([]uint64(nil), bs.BankAccesses...)
		s.res.SCCBank[i] = &bs
	}
	for p, c := range s.private {
		// A private cache has no banks; one pseudo-bank carries its
		// access count.
		s.res.SCC[p] = ptr(*c.Stats())
		s.res.SCCBank[p] = &scc.Stats{BankAccesses: []uint64{c.Stats().TotalAccesses()}}
	}
	for p := range s.l1Stats {
		s.res.L1 = append(s.res.L1, &s.l1Stats[p])
	}
	s.res.Snoop = ptr(*s.bus.Stats())

	s.histBankWait.Flush()
	s.histReadMiss.Flush()
	s.histWBStall.Flush()

	if s.ck == nil {
		return s.res, nil
	}
	f := verify.Final{
		Cycles:           s.res.Cycles,
		Refs:             s.res.Refs,
		ExpectedRefs:     expectedRefs,
		Cache:            s.res.SCC,
		BankAccessCycles: sysmodel.BankAccessCycles,
	}
	if s.sccs != nil {
		// Only SCCs have banks for the bank-occupancy law to audit.
		f.Bank = s.res.SCCBank
	}
	if err := s.ck.FinishRun(f); err != nil {
		return nil, fmt.Errorf("sim: verification failed: %w", err)
	}
	return s.res, nil
}

// ptr returns a pointer to a copy of v.
func ptr[T any](v T) *T { return &v }
