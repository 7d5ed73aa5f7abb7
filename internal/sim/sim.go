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
	// most of the direct-mapped conflict misses.
	VictimEntries int
	// WarmupRefs, when positive, zeroes all statistics after that many
	// references have executed, excluding cold-start effects from the
	// reported numbers (a methodology option; the paper measures whole
	// runs, which is the default here too). Timing is unaffected — only
	// the counters reset.
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
type lockTable struct {
	held map[uint32]int
}

func newLockTable() *lockTable { return &lockTable{held: make(map[uint32]int)} }

// holder returns the owning processor and whether the lock is held.
func (lt *lockTable) holder(addr uint32) (int, bool) {
	p, ok := lt.held[addr]
	return p, ok
}

func (lt *lockTable) acquire(addr uint32, p int) { lt.held[addr] = p }
func (lt *lockTable) release(addr uint32)        { delete(lt.held, addr) }

// system is the assembled machine for one run.
type system struct {
	cfg  sysmodel.Config
	opts Options
	sccs []*scc.SCC
	bus  *snoop.Bus
	// wbPending[c] holds completion times of cluster c's in-flight
	// buffered writes, a FIFO ring (issue times are non-decreasing).
	wbPending [][]uint64
	wbHead    []int
	locks     *lockTable
	res       *Result
	// cluster[p] is processor p's cluster, precomputed so the per-ref hot
	// path indexes a table instead of dividing by ProcsPerCluster.
	cluster []int32
	// fastTags[c] is cluster c's tag store when its SCC qualifies for the
	// fused direct-mapped access path (scc.DirectTags), nil otherwise.
	fastTags []*cache.Cache

	// onSCCEvict, when non-nil, observes every line evicted from a
	// cluster's SCC before the bus is notified — the hybrid hierarchy's
	// inclusion seam (back-invalidating the cluster's L1 copies). nil
	// (the default) costs the hot path one branch per eviction.
	onSCCEvict func(cluster int, lineIndex uint32)

	// Instrumentation (all nil when disabled; every use is behind a
	// nil check so the uninstrumented hot path pays only the branch).
	tr           Tracer
	histBankWait *obs.LocalHistogram
	histReadMiss *obs.LocalHistogram
	histWBStall  *obs.LocalHistogram
	ck           *verify.Checker
}

func newSystem(cfg sysmodel.Config, opts Options, procs int) (*system, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &system{cfg: cfg, opts: opts}
	invs := make([]snoop.Invalidator, cfg.Clusters)
	s.sccs = make([]*scc.SCC, cfg.Clusters)
	for i := range s.sccs {
		sc, err := scc.NewWith(cfg.SCCBytes, cfg.Assoc, cfg.Banks(), cfg.Line(), cfg.ReplPolicy())
		if err != nil {
			return nil, err
		}
		if opts.VictimEntries > 0 {
			sc.EnableVictimBuffer(opts.VictimEntries)
		}
		s.sccs[i] = sc
		invs[i] = sc
	}
	s.bus = snoop.New(invs)
	s.bus.SetLineBytes(cfg.Line())
	s.bus.Occupancy = opts.BusOccupancy
	s.bus.MemBanks = opts.MemBanks
	s.bus.MemBankOccupancy = opts.MemBankOccupancy
	s.wbPending = make([][]uint64, cfg.Clusters)
	s.wbHead = make([]int, cfg.Clusters)
	s.locks = newLockTable()
	s.cluster = make([]int32, procs)
	for p := 0; p < procs; p++ {
		s.cluster[p] = int32(p / cfg.ProcsPerCluster)
	}
	s.fastTags = make([]*cache.Cache, cfg.Clusters)
	for i, sc := range s.sccs {
		s.fastTags[i] = sc.DirectTags()
	}

	if opts.Verify != nil {
		cls := make([]verify.Cluster, len(s.sccs))
		for i, sc := range s.sccs {
			cls[i] = sc
		}
		s.ck = verify.NewChecker(opts.Verify, s.bus, cls, opts.VictimEntries > 0)
		s.ck.SetLineBytes(cfg.Line())
		s.bus.Verifier = s.ck
	}

	s.tr = opts.Tracer
	if s.tr != nil {
		// Bus transactions land on the requesting cluster's bus track,
		// laid out after the processor tracks.
		tr := s.tr
		s.bus.Hook = func(kind snoop.TxnKind, start, dur uint64, cluster int, addr uint32) {
			var k EventKind
			switch kind {
			case snoop.TxnFetch:
				k = EvBusFetch
			case snoop.TxnInvalidate:
				k = EvBusInvalidate
			default:
				k = EvBusWriteBack
			}
			tr.Emit(obs.Event{TS: start, Dur: dur, Track: busTrack(procs, cluster),
				Kind: uint8(k), Addr: addr})
		}
	}
	if m := opts.Metrics; m != nil {
		// Local staging buffers: per-event observations stay plain
		// arithmetic in this run's goroutine, merged into the shared
		// registry once at the end of the run (see flushMetrics), so
		// parallel sweep workers never contend on the histogram atomics.
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
		SCC:         make([]*cache.Stats, cfg.Clusters),
		SCCBank:     make([]*scc.Stats, cfg.Clusters),
	}
	return s, nil
}

// clusterOf maps a processor index to its cluster.
func (s *system) clusterOf(p int) int { return int(s.cluster[p]) }

// directMapped reports whether every SCC takes the direct-mapped access
// path (scc.DirectTags): the configuration, and nothing else, decides
// whether replay performs the shared-SCC access in its own loop.
func (s *system) directMapped() bool {
	for _, tags := range s.fastTags {
		if tags == nil {
			return false
		}
	}
	return true
}

// warmupReset clears the statistics accumulated so far; replay invokes
// it exactly once, immediately after the Options.WarmupRefs'th reference
// completes (cold-start exclusion). Timing state is untouched.
func (s *system) warmupReset() {
	for _, sc := range s.sccs {
		*sc.CacheStats() = cache.Stats{}
		sc.ResetStats()
	}
	*s.bus.Stats() = snoop.Stats{}
	for p := range s.res.ReadStall {
		s.res.ReadStall[p] = 0
		s.res.WriteStall[p] = 0
		s.res.BankStall[p] = 0
		s.res.LockStall[p] = 0
	}
	s.res.LockSpins = 0
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
		// it is free, then claim it with an atomic write.
		t := s.memAccess(p, now, r.Addr, mem.Read)
		if holder, held := s.locks.holder(r.Addr); held && holder != p {
			s.res.LockSpins++
			s.res.LockStall[p] += SpinInterval
			if s.tr != nil {
				s.tr.Emit(obs.Event{TS: t, Dur: SpinInterval, Track: int32(p),
					Kind: uint8(EvLockSpin), Addr: r.Addr})
			}
			return t + SpinInterval, true
		}
		t = s.memAccess(p, t, r.Addr, mem.Write)
		s.locks.acquire(r.Addr, p)
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvLockAcquire), Addr: r.Addr})
		}
		return t, false
	case mem.Unlock:
		t := s.memAccess(p, now, r.Addr, mem.Write)
		s.locks.release(r.Addr)
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvLockRelease), Addr: r.Addr})
		}
		return t, false
	default:
		return s.memAccess(p, now, r.Addr, r.Kind), false
	}
}

// memAccess performs a plain load or store through the cluster's SCC.
func (s *system) memAccess(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	c := s.clusterOf(p)
	sc := s.sccs[c]
	if s.ck != nil {
		// Shadow-count the access so FinishRun can assert the tag store
		// accounted every access exactly once (hits + misses == accesses).
		s.ck.OnAccess(c)
	}
	if tags := s.fastTags[c]; tags != nil {
		// Fused fast path for the paper's SCC configuration
		// (direct-mapped, no victim buffer): bank arbitration and tag
		// probe inline — an ordinary hit runs call-free instead of
		// threading a Result struct through two layers. Semantically
		// identical to the general path below; the oracle
		// (internal/verify) pins both. Run's replay loop performs the
		// same steps itself; this branch serves the multiprogramming
		// scheduler, locks and the hybrid hierarchy's L1 misses.
		t := sc.BankStart(now, addr)
		if t != now {
			s.bankStallAt(p, now, t-now, addr)
		}
		if tags.HitDM(addr, kind) {
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
		return s.missDM(p, c, t, addr, kind)
	}

	ar := sc.Access(now, addr, kind)
	if wait := ar.Wait(now); wait > 0 {
		s.bankStallAt(p, now, wait, addr)
	}
	t := ar.Start
	if ar.Hit {
		if kind == mem.Write {
			// Write hit: invalidate other clusters' copies if shared.
			s.bus.WriteShared(t, c, addr)
		}
		if s.tr != nil {
			s.emitHit(p, t, addr, kind)
		}
		return t
	}
	return s.missFrom(p, c, t, addr, kind, ar.Evicted, ar.EvictedDirty)
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
	cr := s.fastTags[c].MissDM(addr, kind)
	return s.missFrom(p, c, t, addr, kind, cr.Evicted, cr.EvictedDirty)
}

// missFrom completes a miss whose bank service started at t: eviction
// notice, bus fetch, and read-stall or write-buffer accounting.
func (s *system) missFrom(p, c int, t uint64, addr uint32, kind mem.Kind,
	evicted uint32, evictedDirty bool) uint64 {

	if evicted != cache.EvictedNone {
		if s.onSCCEvict != nil {
			s.onSCCEvict(c, evicted)
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

// replay drives barrier-delimited phase streams in global issue order,
// handling barriers and accounting into res. phases is the per-phase,
// per-processor stream table (a compiled program's arena views,
// trace.Compiled.Streams). access performs one memory reference for a
// processor at a time and returns when the processor may proceed and
// whether the reference must be retried (a spin on a held lock). dm,
// when non-nil, is a shared-SCC machine whose SCCs are all
// direct-mapped with no victim buffer (system.directMapped): the loop
// then performs plain reads and writes itself, and only lock, unlock
// and the rare outcomes reach access or the system's slower paths.
// warmupAt, when nonzero, invokes reset exactly once, immediately after
// the warmupAt'th reference completes. A non-nil tracer receives a
// barrier-wait event per processor per phase.
func replay(phases [][][]mem.Ref, procs int, res *Result, tr Tracer,
	warmupAt uint64, reset func(),
	access func(p int, now uint64, r mem.Ref) (uint64, bool), dm *system) []uint64 {

	clock := make([]uint64, procs)
	pos := make([]int, procs)
	sched := newTourney(procs)
	var phaseStart uint64

	for _, streams := range phases {
		for p := 0; p < procs; p++ {
			pos[p] = 0
			if len(streams[p]) > 0 {
				sched.set(p, schedKey(p, clock[p]+uint64(streams[p][0].Gap)))
			}
		}
		for {
			k := sched.winner()
			if k == noKey {
				break
			}
			// Run ahead: the winner keeps issuing while its next key stays
			// below bound, every other processor's earliest key — exactly
			// the order of a scheduler consulted per reference, with the
			// tree touched only when the winner changes or finishes.
			p, t := keyProc(k), keyTime(k)
			bound := sched.runnerUp(p)
			st, i := streams[p], pos[p]
			var c int
			var sc *scc.SCC
			var tags *cache.Cache
			if dm != nil {
				c = dm.clusterOf(p)
				sc, tags = dm.sccs[c], dm.fastTags[c]
			}
			for {
				if r := st[i]; r.Kind != mem.Idle {
					if tags != nil && r.Kind <= mem.Write {
						// The paper's SCC access, in line: bank arbitration,
						// the tag probe and the private-line write-hit
						// check. The same steps as memAccess's direct-mapped
						// branch, written here because that function is over
						// the inlining budget; the oracle pins both.
						if dm.ck != nil {
							dm.ck.OnAccess(c)
						}
						start := sc.BankStart(t, r.Addr)
						if start != t {
							dm.bankStallAt(p, t, start-t, r.Addr)
						}
						if tags.HitDM(r.Addr, r.Kind) {
							if r.Kind == mem.Write && dm.bus.MaybeShared(r.Addr, c) {
								dm.bus.WriteShared(start, c, r.Addr)
							}
							if tr != nil {
								dm.emitHit(p, start, r.Addr, r.Kind)
							}
							t = start
						} else {
							t = dm.missDM(p, c, start, r.Addr, r.Kind)
						}
					} else {
						var retry bool
						if t, retry = access(p, t, r); retry {
							// Spin iteration: re-issue the same reference later.
							if k := schedKey(p, t); k >= bound {
								pos[p] = i
								sched.set(p, k)
								break
							}
							continue
						}
					}
					res.Refs++
					if res.Refs == warmupAt {
						reset()
					}
				}
				if i++; i == len(st) {
					clock[p] = t
					sched.set(p, noKey)
					break
				}
				t += uint64(st[i].Gap)
				if k := schedKey(p, t); k >= bound {
					pos[p] = i
					sched.set(p, k)
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

// Run simulates a parallel program on the configured system. The program
// must have exactly cfg.Procs() streams per phase. Run never mutates
// prog, so concurrent Runs may share one Program (see the package
// comment's concurrency contract); the compiled form a Run memoizes on
// the program (trace.Compile) is itself immutable and shared the same
// way.
func Run(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
	// The hierarchy axis selects the machine: the paper's shared SCC
	// (below), per-processor private caches, or the two-level hybrid.
	switch cfg.HierarchyKind() {
	case sysmodel.HierarchyPrivate:
		return RunPrivate(cfg, opts, prog)
	case sysmodel.HierarchyHybrid:
		return RunHybrid(cfg, opts, prog)
	}
	procs := cfg.Procs()
	if prog.Procs != procs {
		return nil, fmt.Errorf("sim: program %q generated for %d processors, config has %d",
			prog.Name, prog.Procs, procs)
	}
	comp, err := trace.Compile(prog)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(cfg, opts, procs)
	if err != nil {
		return nil, err
	}
	s.bus.ReserveLines(reserveLines(comp.MaxLineIndex(), cfg.Line()))
	var dm *system
	if s.directMapped() {
		dm = s
	}
	clock := replay(comp.Streams, procs, s.res, s.tr, opts.WarmupRefs, s.warmupReset, s.access, dm)
	s.finish(clock)
	s.flushMetrics()
	if s.ck != nil {
		if err := s.verifyFinish(comp.Refs()); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// flushMetrics merges the run's staged histogram batches into the
// shared registry.
func (s *system) flushMetrics() {
	s.histBankWait.Flush()
	s.histReadMiss.Flush()
	s.histWBStall.Flush()
}

// reserveLines converts a maximum line index measured at the paper's
// 16-byte granularity (what trace.Compile records) to the flat-table
// line count needed at the configured line size, rounding up so the
// whole footprint stays direct-indexed. Sizing is a pure optimization
// (the paged fallback keeps out-of-bound lines correct), but at the
// default line size the count is exactly the historical maxLine+1.
func reserveLines(maxLine16 uint32, lineBytes int) uint32 {
	n := ((uint64(maxLine16)+1)*sysmodel.LineSize + uint64(lineBytes) - 1) / uint64(lineBytes)
	if n > snoop.MaxFlatLines {
		n = snoop.MaxFlatLines
	}
	return uint32(n)
}

// verifyFinish runs the checker's end-of-run audit against the
// finished result; expectedRefs of 0 skips the trace-conservation check.
func (s *system) verifyFinish(expectedRefs uint64) error {
	err := s.ck.FinishRun(verify.Final{
		Cycles:           s.res.Cycles,
		Refs:             s.res.Refs,
		ExpectedRefs:     expectedRefs,
		Cache:            s.res.SCC,
		Bank:             s.res.SCCBank,
		BankAccessCycles: sysmodel.BankAccessCycles,
	})
	if err != nil {
		return fmt.Errorf("sim: verification failed: %w", err)
	}
	return nil
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

// finish copies final per-processor state and system statistics into the
// result. The statistics are copied, not referenced, so a kept result
// does not hold the machine — tag stores, bank state, presence table —
// alive.
func (s *system) finish(clock []uint64) {
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
	s.res.Snoop = ptr(*s.bus.Stats())
}

// ptr returns a pointer to a copy of v.
func ptr[T any](v T) *T { return &v }
