package sim

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// Hybrid (two-level) cluster organization: each processor gets a small
// private L1 in front of the cluster's shared SCC — the middle ground
// between the paper's shared SCC (bandwidth filtered through banks) and
// the pure private organization (capacity fragmented, coherence misses).
//
// Model, precisely (the oracle in internal/verify mirrors it):
//
//   - The L1 is per processor, direct-mapped, write-through with no
//     write-allocate, Config.L1Size() bytes of Config.Line()-byte lines.
//   - An L1 read hit completes immediately: no SCC bank access, no
//     stall. An L1 read miss goes through the shared-SCC path exactly as
//     the shared hierarchy would (bank arbitration, hit or 100-cycle
//     fetch), then fills the L1; the displaced L1 line is clean by
//     construction and leaves silently.
//   - Every write goes through the shared-SCC path (write-through); the
//     writer's L1 copy stays valid (the write updates it), while
//     same-cluster sibling L1 copies are invalidated at issue time —
//     the intra-cluster analogue of the bus's write-invalidate protocol.
//   - Multi-level inclusion is enforced: a line leaving a cluster's SCC
//     (eviction or inter-cluster invalidation) is back-invalidated out
//     of that cluster's L1s. L1 residency therefore always implies SCC
//     residency, which is what lets the coherence presence table keep
//     one bit per cluster.
//
// All SCC, bank, bus and write-buffer behaviour is byte-identical to
// the shared hierarchy for the references that reach the SCC; the L1
// only filters read hits out of that stream.

// hybridInv wraps a cluster's SCC invalidator so an inter-cluster
// invalidation also kills the cluster's L1 copies (inclusion). The
// presence/dirty answer is the SCC's: L1 copies are clean duplicates.
type hybridInv struct {
	scc snoop.Invalidator
	l1  []*cache.Cache
	st  []cache.Stats
}

func (h *hybridInv) Invalidate(addr uint32) (present, dirty bool) {
	present, dirty = h.scc.Invalidate(addr)
	for p, c := range h.l1 {
		if was, _ := c.Invalidate(addr); was {
			h.st[p].Invalidations++
		}
	}
	return present, dirty
}

// RunHybrid simulates the two-level organization. Run dispatches here
// when cfg.Hierarchy is "hybrid".
func RunHybrid(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
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

	l1 := make([]*cache.Cache, procs)
	l1Stats := make([]cache.Stats, procs)
	for p := range l1 {
		c, err := cache.NewWith(cfg.L1Size(), 1, cfg.Line(), sysmodel.ReplLRU)
		if err != nil {
			return nil, fmt.Errorf("sim: hybrid L1: %w", err)
		}
		l1[p] = c
	}
	ppc := cfg.ProcsPerCluster
	for c := 0; c < cfg.Clusters; c++ {
		s.bus.SetInvalidator(c, &hybridInv{
			scc: s.sccs[c],
			l1:  l1[c*ppc : (c+1)*ppc],
			st:  l1Stats[c*ppc : (c+1)*ppc],
		})
	}
	// Inclusion: an SCC eviction back-invalidates the cluster's L1s
	// before the bus learns of it, so a bus-level probe never finds an
	// L1-only copy.
	s.onSCCEvict = func(c int, lineIndex uint32) {
		addr := lineIndex << cfg.LineShift()
		for p := c * ppc; p < (c+1)*ppc; p++ {
			if was, _ := l1[p].Invalidate(addr); was {
				l1Stats[p].Invalidations++
			}
		}
	}

	memAccess := func(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
		st := &l1Stats[p]
		if kind == mem.Write {
			// Write-through, no write-allocate: the writer's own copy
			// stays valid, sibling copies die, and the write always
			// proceeds to the SCC.
			st.Accesses[mem.Write]++
			if !l1[p].Probe(addr) {
				st.Misses[mem.Write]++
			}
			c := int(s.cluster[p])
			for q := c * ppc; q < (c+1)*ppc; q++ {
				if q != p {
					if was, _ := l1[q].Invalidate(addr); was {
						l1Stats[q].Invalidations++
					}
				}
			}
			return s.memAccess(p, now, addr, mem.Write)
		}
		st.Accesses[kind]++
		if l1[p].Probe(addr) {
			return now
		}
		st.Misses[kind]++
		t := s.memAccess(p, now, addr, kind)
		if l1[p].FillDM(addr) {
			st.Evictions++
		}
		return t
	}

	access := func(p int, now uint64, r mem.Ref) (uint64, bool) {
		switch r.Kind {
		case mem.Lock:
			// Test-and-test-and-set through the L1: spins hit the cached
			// lock word until the holder's release write invalidates it.
			t := memAccess(p, now, r.Addr, mem.Read)
			if holder, held := s.locks.holder(r.Addr); held && holder != p {
				s.res.LockSpins++
				s.res.LockStall[p] += SpinInterval
				return t + SpinInterval, true
			}
			t = memAccess(p, t, r.Addr, mem.Write)
			s.locks.acquire(r.Addr, p)
			return t, false
		case mem.Unlock:
			t := memAccess(p, now, r.Addr, mem.Write)
			s.locks.release(r.Addr)
			return t, false
		default:
			return memAccess(p, now, r.Addr, r.Kind), false
		}
	}

	reset := func() {
		s.warmupReset()
		for i := range l1Stats {
			l1Stats[i] = cache.Stats{}
		}
	}
	clock := replay(comp.Streams, procs, s.res, s.tr, opts.WarmupRefs, reset, access, nil)
	s.finish(clock)
	s.flushMetrics()
	s.res.L1 = make([]*cache.Stats, procs)
	for p := range l1Stats {
		s.res.L1[p] = &l1Stats[p]
	}
	if s.ck != nil {
		if err := s.verifyFinish(comp.Refs()); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}
