package rdmodel

import (
	"fmt"
	"math"

	"sccsim/internal/sysmodel"
)

// CacheCounts is one cluster's predicted access and miss counts.
// Counts are expectations (fractional): the direct-mapped model sums
// per-access miss probabilities rather than simulating placements.
type CacheCounts struct {
	Reads, Writes           float64
	ReadMisses, WriteMisses float64
}

// ReadMissRate returns the cluster's predicted read miss ratio.
func (c CacheCounts) ReadMissRate() float64 {
	if c.Reads == 0 {
		return 0
	}
	return c.ReadMisses / c.Reads
}

// Prediction is the model's answer for one (profile, SCC size) point:
// per-cluster expected miss counts, the system-wide read miss ratio
// (the paper's Table 4 statistic), and a derived execution-time
// estimate.
type Prediction struct {
	SCCBytes, Assoc int
	// Cluster[i] is cluster i's predicted counts.
	Cluster []CacheCounts
	// Reads/ReadMisses aggregate the clusters; ReadMissRate is their
	// ratio.
	Reads, ReadMisses float64
	ReadMissRate      float64
	// EstPhaseCycles[i] estimates phase i's duration; EstCycles their
	// sum (the makespan estimate).
	EstPhaseCycles []uint64
	EstCycles      uint64
}

// Predict estimates the miss ratio and execution time of one SCC size
// from the profile. It fills one miss-probability table up to the
// profile's largest tracked distance, then adds each cluster's nonzero
// histogram slots: O(top·A) plus O(listed distances) per query, where
// top is at most the cap — every grid size reuses the same single
// profile pass.
//
// Miss model: a compulsory (cold) access always misses. For a
// direct-mapped cache of C lines (assoc 1, the paper's SCC), an access
// at reuse distance d hits iff none of the d intervening distinct lines
// displaced it, which under uniform index hashing has probability
// (1-1/C)^d — the statistical conflict-miss model from the
// reuse-distance literature. For an A-way LRU cache the same argument
// generalises: with S = C/A sets, the access hits iff fewer than A of
// the d intervening lines landed in its set, i.e. P(hit) = P(X < A)
// with X ~ Binomial(d, A/C). The distribution is advanced
// incrementally in d, so the A-way table costs O(top·A) and
// degenerates exactly to the direct-mapped recurrence at A = 1 and
// to the fully-associative LRU threshold (miss iff d >= C) at S = 1.
// Distances at or above the tracker cap are taken as certain misses,
// and a cache of more lines than the cap is modeled as one of cap lines
// and at most cap ways.
// The model assumes LRU within a set; random replacement is not
// modeled (callers on the analytic backend reject it).
//
// Time model: per phase, each processor issues its stall-free cycles
// plus sysmodel.MemLatency per predicted read miss (its share of the
// cluster's misses, in proportion to its reads); the phase estimate is
// the slowest processor's total, and the makespan the sum over phases.
// Write misses are assumed absorbed by the write buffer, and bank and
// bus contention are not modeled.
func (p *Profile) Predict(sccBytes, assoc int) (*Prediction, error) {
	lines := sccBytes / sysmodel.LineSize
	if lines < 1 {
		return nil, fmt.Errorf("rdmodel: SCC size %d below one %d-byte line", sccBytes, sysmodel.LineSize)
	}
	if assoc < 1 {
		return nil, fmt.Errorf("rdmodel: associativity %d, want >= 1", assoc)
	}
	if assoc > lines {
		return nil, fmt.Errorf("rdmodel: associativity %d exceeds the %d lines of a %d-byte SCC", assoc, lines, sccBytes)
	}
	pred := &Prediction{
		SCCBytes: sccBytes, Assoc: assoc,
		Cluster: make([]CacheCounts, len(p.Cluster)),
	}
	ways := assoc
	if lines > p.Cap {
		// Distances in [cap, lines) were not tracked exactly; clamping
		// keeps the prediction defined (and conservative) but a profile
		// built with a larger cap would be exact. A cache of cap lines
		// is at most fully associative.
		lines = p.Cap
		ways = min(ways, lines)
	}
	pmiss := make([]float64, p.top)
	missProbs(pmiss, lines, ways)
	rates := make([]float64, len(p.Cluster))
	for i := range p.Cluster {
		h, q := &p.Cluster[i], &p.query[i]
		c := CacheCounts{Reads: q.reads, Writes: q.writes}
		c.ReadMisses = q.read.misses(float64(h.ColdReads+h.FarReads), pmiss)
		c.WriteMisses = q.write.misses(float64(h.ColdWrites+h.FarWrites), pmiss)
		pred.Cluster[i] = c
		pred.Reads += c.Reads
		pred.ReadMisses += c.ReadMisses
		rates[i] = c.ReadMissRate()
	}
	if pred.Reads > 0 {
		pred.ReadMissRate = pred.ReadMisses / pred.Reads
	}
	pred.EstPhaseCycles = make([]uint64, len(p.Issue))
	pred.EstCycles = p.estimateCycles(rates, pred.EstPhaseCycles)
	return pred, nil
}

// missProbs fills pmiss[d] with the probability that an access at
// reuse distance d misses in a cache of the given lines and
// associativity (see Predict for the model). The direct-mapped
// recurrence is the survival chance (1-1/C)^d as an iterated product;
// the A-way one advances P(X_d = k) for k < assoc under one more
// Bernoulli(A/C) trial per distance step, the hit probability at
// distance d being the mass below assoc. Each entry depends only on the
// entries before it, so a table cut at any length holds the same floats
// as a longer one, and every caller computes them in the same order:
// their estimates agree bit for bit.
//
// X_d <= d, so until d reaches assoc-1 (the ramp-up) the states above
// d hold exact zeros: the sum stops at k = d and the step at k = d+1,
// skipping only additions of zero, which leaves every float as the
// full recurrence computes it at O(top·min(top, A)) cost.
func missProbs(pmiss []float64, lines, assoc int) {
	if assoc == 1 {
		surv := 1.0
		decay := 1 - 1/float64(lines)
		for d := range pmiss {
			pmiss[d] = 1 - surv
			surv *= decay
		}
		return
	}
	q := float64(assoc) / float64(lines)
	stay := 1 - q
	pk := make([]float64, assoc)
	pk[0] = 1
	ramp := min(len(pmiss), assoc-1)
	for d := 0; d < ramp; d++ {
		var pHit float64
		for _, p := range pk[:d+1] {
			pHit += p
		}
		pmiss[d] = 1 - pHit
		for k := d + 1; k > 0; k-- {
			pk[k] = pk[k]*stay + pk[k-1]*q
		}
		pk[0] *= stay
	}
	for d := ramp; d < len(pmiss); d++ {
		var pHit float64
		for _, p := range pk {
			pHit += p
		}
		pmiss[d] = 1 - pHit
		for k := len(pk) - 1; k > 0; k-- {
			pk[k] = pk[k]*stay + pk[k-1]*q
		}
		pk[0] *= stay
	}
}

// estimateCycles is the time model: per phase, the slowest processor's
// stall-free issue cycles plus MemLatency per predicted read miss at
// its cluster's read miss rate (rates[c]). It returns the makespan, the
// sum over phases, and fills phases[i] with phase i's estimate when
// phases is non-nil.
func (p *Profile) estimateCycles(rates []float64, phases []uint64) uint64 {
	ppc := p.Procs / len(p.Cluster)
	var total uint64
	for i := range p.Issue {
		var worst float64
		for pr := 0; pr < p.Procs; pr++ {
			est := float64(p.Issue[i][pr]) +
				rates[pr/ppc]*float64(p.ReadRefs[i][pr])*float64(sysmodel.MemLatency)
			if est > worst {
				worst = est
			}
		}
		cycles := uint64(math.Round(worst))
		if phases != nil {
			phases[i] = cycles
		}
		total += cycles
	}
	return total
}
