package sim

import "sccsim/internal/mem"

// The hierarchy axis (sysmodel.Config.Hierarchy) selects what newSystem
// puts between the processors and the snoopy bus. The shared hierarchy
// is the paper's: one banked SCC per cluster. The other two are built
// from the same parts and driven by the same replay, access, miss and
// write-buffer paths.
//
// Private — the paper's alternative design (Section 2.1): "separate per
// processor caches which are kept coherent over a high bandwidth
// intra-cluster bus. This organization has the advantage that the total
// cache bandwidth scales with the number of processors in the cluster.
// However, coherence misses and invalidation traffic ... can become a
// performance bottleneck." Each processor gets a private cache of
// SCCBytes / ProcsPerCluster (equal total capacity per cluster) as its
// own index on the bus, with no banks and its own write buffer; every
// cache is kept coherent with write-invalidate snooping, and a miss is
// served from a same-cluster cache over the fast intra-cluster bus
// (IntraClusterLatency) or from memory/another cluster in MemLatency.
// Comparing the two on the same program reproduces the paper's
// shared-vs-private cluster cache argument: the shared cache keeps one
// copy per cluster and turns intra-cluster sharing into hits, while
// private caches duplicate lines and pay coherence misses.
//
// Hybrid (two-level): each processor gets a small private L1 in front
// of the cluster's shared SCC — the middle ground between the shared
// SCC (bandwidth filtered through banks) and the private organization
// (capacity fragmented, coherence misses). Precisely (the oracle in
// internal/verify mirrors it):
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
//     is back-invalidated out of that cluster's L1s. It leaves by an
//     eviction, an inter-cluster invalidation or, with a victim buffer,
//     by the buffer's FIFO pushing it out; a line parked in the buffer
//     is still in the SCC and keeps its L1 copies. L1 residency
//     therefore always implies SCC residency (tags or buffer), which is
//     what lets the coherence presence table keep one bit per cluster.
//
// All SCC, bank, bus and write-buffer behaviour is byte-identical to
// the shared hierarchy for the references that reach the SCC; the L1
// only filters read hits out of that stream.

// IntraClusterLatency is the cache-to-cache transfer latency within a
// cluster in the private-cache organization (cycles). The intra-cluster
// bus is fast but a transfer still costs a handful of cycles.
const IntraClusterLatency = 20

// privateAccess performs a plain load or store of the private
// hierarchy through processor p's cache, bus index p. A private cache
// has no banks: the access starts at once.
func (s *system) privateAccess(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	if s.ck != nil {
		s.ck.OnAccess(p)
	}
	cr := s.private[p].Access(addr, kind)
	if cr.Hit {
		if kind == mem.Write {
			// Write hit: invalidate other caches' copies if shared.
			s.bus.WriteShared(now, p, addr)
		}
		if s.tr != nil {
			s.emitHit(p, now, addr, kind)
		}
		return now
	}
	return s.missFrom(p, p, now, addr, kind, cr.Evicted, cr.EvictedDirty)
}

// l1Access performs a plain load or store of the hybrid hierarchy:
// through processor p's L1, and on to the cluster's SCC (memAccess) for
// a read miss or any write. The L1 is direct-mapped, so every probe is
// one tag-word compare (cache.ProbeDM).
func (s *system) l1Access(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	st, l1 := &s.l1Stats[p], s.l1[p]
	st.Accesses[kind]++
	if kind == mem.Write {
		// Write-through, no write-allocate: the writer's own copy stays
		// valid, sibling copies die, and the write always proceeds to
		// the SCC.
		if !l1.ProbeDM(addr) {
			st.Misses[mem.Write]++
		}
		s.invalidateL1s(s.clusterOf(p), addr, p)
		return s.memAccess(p, now, addr, mem.Write)
	}
	if l1.ProbeDM(addr) {
		return now
	}
	st.Misses[kind]++
	t := s.memAccess(p, now, addr, kind)
	if l1.FillDM(addr) {
		st.Evictions++
	}
	return t
}

// invalidateL1s kills addr's line in cluster c's L1s, except processor
// skip's (-1 for none). The inlined one-word probe spares the common
// case, an L1 without the line, a call.
func (s *system) invalidateL1s(c int, addr uint32, skip int) {
	ppc := s.cfg.ProcsPerCluster
	for q := c * ppc; q < (c+1)*ppc; q++ {
		if q != skip && s.l1[q].ProbeDM(addr) {
			s.l1[q].Invalidate(addr)
			s.l1Stats[q].Invalidations++
		}
	}
}

// hybridInv is cluster c's invalidator on the hybrid hierarchy's bus:
// an inter-cluster invalidation also kills the cluster's L1 copies
// (inclusion). The presence/dirty answer is the SCC's: L1 copies are
// clean duplicates.
type hybridInv struct {
	s *system
	c int
}

func (h *hybridInv) Invalidate(addr uint32) (present, dirty bool) {
	present, dirty = h.s.sccs[h.c].Invalidate(addr)
	h.s.invalidateL1s(h.c, addr, -1)
	return present, dirty
}
