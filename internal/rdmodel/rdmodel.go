// Package rdmodel is the analytic reuse-distance cache model behind the
// facade's "analytic" backend: one pass over a workload's compiled
// reference trace produces per-cluster reuse-distance histograms, from
// which the predicted SCC miss ratio — and a derived execution-time
// estimate — of *every* cache size on the paper's grid follows in
// microseconds (see Predict). Each builder finishes by folding every
// histogram into a sparse query form, its nonzero slots, so a query
// costs what the trace's reuse distances fill, not the tracker cap.
// The approach is
// the shared-cache reuse-distance model of Barai, Chapman et al.
// ("Modeling Shared Cache Performance of OpenMP Programs using Reuse
// Distance"): the processors of a cluster share one SCC, so the model
// measures stack distances over the cluster's *merged* reference
// stream, interleaving the per-processor streams in the same
// virtual-time order the exact simulator replays them in.
//
// The package deliberately depends only on the trace substrate (mem,
// trace, sysmodel) and the merge-order primitive (sched) — not on the
// simulator. The exact and analytic backends share inputs and the
// priority queue that orders per-processor streams by virtual time,
// which holds no cache model, but no modelling machinery; that is what
// makes the verify cross-validator (internal/verify) a meaningful
// check. Their independence rests on references that share nothing:
// this package's builders answer to naive min-clock scans over plain
// LRU stacks in its tests, and the simulator to the map-based oracle in
// internal/verify.
//
// Model accuracy contract: distances below the tracker cap are exact;
// the model's error against the exact simulator comes from (a) the
// statistical direct-mapped conflict model, (b) ignoring coherence
// invalidations and lock spins, and (c) the stall-free interleaving
// approximation. The measured error bounds live in the facade's
// cross-validation defaults (sccsim.DefaultCrossBounds) and are
// asserted by `make verify-analytic`.
package rdmodel

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/sched"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// DefaultCap returns the tracker cap used for the paper's grid: the
// line count of the largest SCC in the sweep. Distances at or above it
// are certain misses at every swept size, so nothing larger needs exact
// tracking.
func DefaultCap() int {
	return sysmodel.SCCSizes[len(sysmodel.SCCSizes)-1] / sysmodel.LineSize
}

// Hist is a reuse-distance histogram at cache-line granularity, split
// by access kind. Read[d] / Write[d] count accesses whose distance is
// exactly d (d < Cap); FarReads/FarWrites count accesses with distance
// >= Cap; ColdReads/ColdWrites count first-ever touches (compulsory
// misses at any size).
type Hist struct {
	Cap        int
	Read       []uint64
	Write      []uint64
	FarReads   uint64
	FarWrites  uint64
	ColdReads  uint64
	ColdWrites uint64
}

func newHist(capLines int) Hist {
	return Hist{Cap: capLines, Read: make([]uint64, capLines), Write: make([]uint64, capLines)}
}

// Reads returns the total read-kind accesses in the histogram.
func (h *Hist) Reads() uint64 {
	var n uint64
	for _, v := range h.Read {
		n += v
	}
	return n + h.FarReads + h.ColdReads
}

// Writes returns the total write-kind accesses in the histogram.
func (h *Hist) Writes() uint64 {
	var n uint64
	for _, v := range h.Write {
		n += v
	}
	return n + h.FarWrites + h.ColdWrites
}

func (h *Hist) add(d int, write bool) {
	switch {
	case d == distCold && write:
		h.ColdWrites++
	case d == distCold:
		h.ColdReads++
	case d == distFar && write:
		h.FarWrites++
	case d == distFar:
		h.FarReads++
	case write:
		h.Write[d]++
	default:
		h.Read[d]++
	}
}

// Profile is one workload trace's complete reuse-distance profile for a
// fixed system shape (processor count and cluster count): everything
// Predict needs to estimate any SCC size's miss ratio and execution
// time. Building it is the expensive step — O(refs · log cap) — and is
// done exactly once per (workload, procs, clusters, scale) by the
// explorer's profile cache.
type Profile struct {
	// Name mirrors the source trace; Procs and Clusters fix the system
	// shape the profile was measured for (histograms depend on how
	// streams merge, so a profile is not reusable across shapes).
	Name     string
	Procs    int
	Clusters int
	// Cap is the tracker cap shared by every histogram.
	Cap int
	// Refs is the total memory references (excluding Idle), matching the
	// exact simulator's Result.Refs accounting.
	Refs uint64
	// Cluster[i] is cluster i's histogram over its merged stream — the
	// shared-SCC view the miss prediction uses.
	Cluster []Hist
	// PhaseNames, Issue and ReadRefs feed the execution-time estimate:
	// Issue[i][p] is processor p's stall-free issue cycles in phase i
	// (compute gaps plus one cycle per cache access), ReadRefs[i][p] its
	// read-kind accesses there. Both are taken from the cluster merge.
	PhaseNames []string
	Issue      [][]uint64
	ReadRefs   [][]uint64

	// query[i] is Cluster[i] in the form Predict and Curve.At read (see
	// finish), and top is one past the largest distance any histogram
	// holds a count at: the length of every miss-probability table.
	query []clusterQuery
	top   int
}

// clusterQuery is one cluster histogram folded for prediction: its
// read and write totals, and the nonzero slots of each kind.
type clusterQuery struct {
	reads, writes float64
	read, write   sparseHist
}

// sparseHist lists a histogram's nonzero slots: dist[i] is a tracked
// distance, in increasing order, and n[i] its count. The paper's
// workloads fill 0.3–42% of a profile's slots, so a query reads only
// these.
type sparseHist struct {
	dist []int32
	n    []float64
}

func newSparseHist(hist []uint64) sparseHist {
	var listed int
	for _, n := range hist {
		if n != 0 {
			listed++
		}
	}
	s := sparseHist{dist: make([]int32, 0, listed), n: make([]float64, 0, listed)}
	for d, n := range hist {
		if n != 0 {
			s.dist = append(s.dist, int32(d))
			s.n = append(s.n, float64(n))
		}
	}
	return s
}

// misses adds to base, the accesses that miss at every size, the
// expected misses of the listed distances: n[i] accesses at distance
// dist[i], each missing with probability pmiss[dist[i]]. pmiss must
// reach past the largest listed distance.
func (s *sparseHist) misses(base float64, pmiss []float64) float64 {
	for i, d := range s.dist {
		base += pmiss[d] * s.n[i]
	}
	return base
}

// top returns one past the largest listed distance, or 0.
func (s *sparseHist) top() int {
	if len(s.dist) == 0 {
		return 0
	}
	return int(s.dist[len(s.dist)-1]) + 1
}

// finish folds each cluster histogram into its query form. Both
// builders call it last; a profile is immutable from then on.
func (p *Profile) finish() {
	p.query = make([]clusterQuery, len(p.Cluster))
	for i := range p.Cluster {
		h := &p.Cluster[i]
		q := clusterQuery{
			reads: float64(h.Reads()), writes: float64(h.Writes()),
			read: newSparseHist(h.Read), write: newSparseHist(h.Write),
		}
		p.query[i] = q
		p.top = max(p.top, q.read.top(), q.write.top())
	}
}

// HeapBytes returns the memory the profile's tables hold: 8 bytes per
// slot of each cluster's Read and Write histograms and per Issue and
// ReadRefs entry, and 12 per nonzero slot the query form lists. The
// sweep engine's profile cache charges a profile this much.
func (p *Profile) HeapBytes() int64 {
	var n int
	for i := range p.Cluster {
		n += len(p.Cluster[i].Read) + len(p.Cluster[i].Write)
	}
	for i := range p.Issue {
		n += len(p.Issue[i]) + len(p.ReadRefs[i])
	}
	var listed int
	for i := range p.query {
		listed += len(p.query[i].read.dist) + len(p.query[i].write.dist)
	}
	return int64(n)*8 + int64(listed)*12
}

// accessesOf maps a trace record to its cache accesses, mirroring the
// exact simulator: a Lock is an acquire read followed by the lock
// write, an Unlock a single write. (Lock spin re-reads depend on
// contention timing and are deliberately not modeled.)
func accessesOf(k mem.Kind) (reads, writes int) {
	switch k {
	case mem.Read:
		return 1, 0
	case mem.Write:
		return 0, 1
	case mem.Lock:
		return 1, 1
	case mem.Unlock:
		return 0, 1
	}
	return 0, 0
}

// BuildProfile measures a parallel workload's reuse-distance profile
// for a clusters-way system: processors are assigned to clusters in
// contiguous blocks (processor p to cluster p/(procs/clusters), exactly
// as the simulator wires them) and each cluster's histogram is taken
// over its processors' streams merged in per-processor virtual-time
// order — the stall-free approximation of the simulator's replay
// interleaving. capLines caps tracked distances (see DefaultCap).
//
// Each cluster's histogram comes from its own pass of one tracker,
// reset in between, over the merge of only its processors: a
// processor's clock never decreases, so the global (clock, id) order
// restricted to one cluster is that cluster's own (clock, id) merge.
// The merge feeds every reference of every stream exactly once, so each
// processor's final clock and read count in a phase, its Issue and
// ReadRefs, are those of its own stream. The merge order comes from the
// replay loops' scheduler (sched.Tourney), which names at most
// sysmodel.MaxProcs processors per cluster.
func BuildProfile(c *trace.Compiled, clusters, capLines int) (*Profile, error) {
	if clusters < 1 || c.Procs%clusters != 0 {
		return nil, fmt.Errorf("rdmodel: %d processors not divisible into %d clusters", c.Procs, clusters)
	}
	ppc := c.Procs / clusters
	if ppc > sysmodel.MaxProcs {
		return nil, fmt.Errorf("rdmodel: %d processors per cluster, above the limit of %d", ppc, sysmodel.MaxProcs)
	}
	p := &Profile{
		Name: c.Name, Procs: c.Procs, Clusters: clusters, Cap: capLines,
		Refs:       c.Refs(),
		Cluster:    make([]Hist, clusters),
		PhaseNames: append([]string(nil), c.PhaseNames...),
		Issue:      make([][]uint64, len(c.Streams)),
		ReadRefs:   make([][]uint64, len(c.Streams)),
	}
	for phase := range c.Streams {
		p.Issue[phase] = make([]uint64, c.Procs)
		p.ReadRefs[phase] = make([]uint64, c.Procs)
	}
	streams, lines := denseStreams(c.Streams, c.MaxLineIndex())
	tk := newTracker(capLines, lines)

	pos := make([]int, ppc)
	clk := make([]uint64, ppc)
	tree := sched.NewTourney(ppc)
	for cl := range p.Cluster {
		h := &p.Cluster[cl]
		*h = newHist(capLines)
		tk.reset()
		for phase, procs := range streams {
			// Phase barriers align the processors, so each phase starts
			// every clock at zero. A processor's leaf is keyed on its
			// clock before the gap of its next reference, and emptied
			// once its stream is done.
			own := procs[cl*ppc : (cl+1)*ppc]
			issue, reads := p.Issue[phase][cl*ppc:], p.ReadRefs[phase][cl*ppc:]
			for q := range own {
				pos[q], clk[q] = 0, 0
				if len(own[q]) > 0 {
					tree.Set(q, sched.Key(q, 0))
				}
			}
			for {
				// The processor with the smallest clock (ties to the
				// lowest id), mirroring the replay scheduler's order,
				// issues until it passes the runner-up.
				k := tree.Winner()
				if k == sched.NoKey {
					break
				}
				q := sched.KeyProc(k)
				var n uint64
				pos[q], clk[q], n = tk.feed(h, own[q], pos[q], clk[q], q, tree.RunnerUp(q))
				reads[q] += n
				if pos[q] == len(own[q]) {
					tree.Set(q, sched.NoKey)
				} else {
					tree.Set(q, sched.Key(q, clk[q]))
				}
			}
			copy(issue, clk)
		}
	}
	p.finish()
	return p, nil
}

// BuildScheduledProfile measures the multiprogramming workload's
// profile: the processes' streams are interleaved by a replica of the
// simulator's round-robin scheduler (initial assignment in process
// order, a global FIFO ready queue, preemption every quantum issue
// cycles when a process waits; a slot goes idle only once the queue is
// empty, so an idle slot stays idle) running in stall-free issue time,
// and the single shared SCC sees the merged stream. Issue and ReadRefs
// are per scheduling slot. Like the simulator's, the schedule orders
// slots with sched.Tourney, which names at most sysmodel.MaxProcs of
// them.
func BuildScheduledProfile(name string, processes [][]mem.Ref, slots int, quantum uint64, capLines int) (*Profile, error) {
	if slots < 1 || len(processes) == 0 || quantum == 0 {
		return nil, fmt.Errorf("rdmodel: bad schedule shape (%d slots, %d processes, quantum %d)",
			slots, len(processes), quantum)
	}
	if slots > sysmodel.MaxProcs {
		return nil, fmt.Errorf("rdmodel: %d scheduling slots, above the limit of %d", slots, sysmodel.MaxProcs)
	}
	p := &Profile{
		Name: name, Procs: slots, Clusters: 1, Cap: capLines,
		Cluster:    []Hist{newHist(capLines)},
		PhaseNames: []string{"scheduled"},
		Issue:      [][]uint64{make([]uint64, slots)},
		ReadRefs:   [][]uint64{make([]uint64, slots)},
	}
	var maxLine uint32
	for _, st := range processes {
		for _, r := range st {
			if rd, wr := accessesOf(r.Kind); rd+wr > 0 {
				p.Refs++
				maxLine = max(maxLine, sysmodel.LineIndex(r.Addr))
			}
		}
	}
	dense, lines := denseStreams([][][]mem.Ref{processes}, maxLine)
	processes = dense[0]
	tk := newTracker(capLines, lines)
	h := &p.Cluster[0]

	// A busy slot's leaf is keyed on its clock, before the gap of its
	// next reference; an idle slot's leaf is empty. Only the winner's
	// clock ever changes, and it is re-keyed as it does.
	pos := make([]int, len(processes))
	queue := make([]int, 0, len(processes))
	// current[s] is slot s's process, or -1 while s is idle.
	current := make([]int, slots)
	quantumEnd := make([]uint64, slots)
	clk := p.Issue[0]
	tree := sched.NewTourney(slots)
	for s := range current {
		if s < len(processes) {
			current[s], quantumEnd[s] = s, quantum
			tree.Set(s, sched.Key(s, 0))
		} else {
			current[s] = -1
		}
	}
	for i := slots; i < len(processes); i++ {
		queue = append(queue, i)
	}

	for {
		// A slot runs until it passes the runner-up, reaches the end of
		// its quantum or finishes its process; only then can the
		// schedule change.
		k := tree.Winner()
		if k == sched.NoKey {
			break
		}
		s := sched.KeyProc(k)
		pid := current[s]
		st := processes[pid]
		if pos[pid] >= len(st) {
			if len(queue) > 0 {
				current[s], queue = queue[0], queue[1:]
				quantumEnd[s] = clk[s] + quantum
			} else {
				current[s] = -1
				tree.Set(s, sched.NoKey)
			}
			continue
		}
		if clk[s] >= quantumEnd[s] && len(queue) > 0 {
			queue = append(queue, pid)
			current[s], queue = queue[0], queue[1:]
			quantumEnd[s] = clk[s] + quantum
			continue
		}
		if clk[s] >= quantumEnd[s] {
			quantumEnd[s] = clk[s] + quantum
		}
		// Stopping at the quantum end is stopping at s's own key there.
		bound := min(tree.RunnerUp(s), sched.Key(s, quantumEnd[s]))
		var reads uint64
		pos[pid], clk[s], reads = tk.feed(h, st, pos[pid], clk[s], s, bound)
		p.ReadRefs[0][s] += reads
		tree.Set(s, sched.Key(s, clk[s]))
	}
	p.finish()
	return p, nil
}
