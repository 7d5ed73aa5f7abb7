package rdmodel

import (
	"fmt"

	"sccsim/internal/sysmodel"
)

// Curve is a Profile prepared for the search triage stage: one profile
// pass answers every SCC size. Each query replays Predict's
// direct-mapped (assoc 1) statistical conflict model — the model the
// paper's entire design space runs under — producing numerically
// identical estimates to Predict(size, 1), so the search pipeline's
// calibrated pruning margins transfer directly from the analytic
// backend's cross-validation. The miss-probability table (1-(1-1/C)^d
// for each distance d up to the profile's largest tracked one) is
// built once per size and shared across the clusters, which keeps a
// query at O(top + listed read distances + phases x procs) —
// microseconds against the exact simulator's seconds.
//
// A Curve is not safe for concurrent use: the miss-probability scratch
// table is reused across At calls. The search triage stage queries it
// from a single goroutine.
type Curve struct {
	prof *Profile
	// pmiss is the per-At scratch table: pmiss[d] = 1-(1-1/C)^d for the
	// last queried line count, filled by missProbs as Predict's is.
	pmiss []float64
}

// Curve returns the profile's per-size query form. The returned Curve
// reads the profile's tables and must not outlive mutations to them
// (profiles are immutable once built, so in practice any Curve is safe
// forever).
func (p *Profile) Curve() *Curve {
	return &Curve{prof: p, pmiss: make([]float64, p.top)}
}

// CurvePoint is one size's answer off a Curve: the system-wide
// predicted read miss ratio and the derived execution-time estimate,
// numerically identical to Predict's direct-mapped (assoc 1)
// prediction for the same profile and size.
type CurvePoint struct {
	SCCBytes     int
	ReadMissRate float64
	EstCycles    uint64
}

// At evaluates the curve at one SCC size. Sizes whose line count
// exceeds the profile's tracker cap clamp to the cap, exactly as
// Predict does; sizes below one line are an error.
func (c *Curve) At(sccBytes int) (CurvePoint, error) {
	lines := sccBytes / sysmodel.LineSize
	if lines < 1 {
		return CurvePoint{}, fmt.Errorf("rdmodel: SCC size %d below one %d-byte line", sccBytes, sysmodel.LineSize)
	}
	p := c.prof
	if lines > p.Cap {
		lines = p.Cap
	}
	pt := CurvePoint{SCCBytes: sccBytes}

	// Predict's miss model and time model, with the miss-probability
	// table built once per size and shared by every cluster.
	missProbs(c.pmiss, lines, 1)
	rates := make([]float64, len(p.Cluster))
	var reads, misses float64
	for i := range p.Cluster {
		h, q := &p.Cluster[i], &p.query[i]
		m := q.read.misses(float64(h.ColdReads+h.FarReads), c.pmiss)
		if q.reads > 0 {
			rates[i] = m / q.reads
		}
		reads += q.reads
		misses += m
	}
	if reads > 0 {
		pt.ReadMissRate = misses / reads
	}
	pt.EstCycles = p.estimateCycles(rates, nil)
	return pt, nil
}
