// The search triage path: batch analytic cycle estimates through the
// reuse-distance curve (rdmodel.Curve). Where the analytic *backend*
// (analytic.go) produces full grid points — complete results, engine
// workers, progress events — this path answers only "roughly how many
// cycles would this point cost?" for thousands of candidates at once,
// which is what the adaptive search's pre-triage stage needs. Profiles
// are shared with the analytic backend through the same cache; each
// distinct processor count takes one curve off its profile, and each
// size is then one pass over the distances that profile's histograms
// fill.

package explorer

import (
	"context"
	"runtime"
	"sync"

	"sccsim/internal/rdmodel"
	"sccsim/internal/sysmodel"
)

// EstimatePoints returns the analytic estimated cycle count for each
// design point, positionally. It resolves one trace and reuse-distance
// profile per distinct processor count (through the shared caches and
// eng.TraceCache, recording the lookups and cache sizes on eng.Metrics
// as a sweep does), building the distinct ones concurrently on at most
// GOMAXPROCS goroutines, and evaluates every size off the
// profile's rdmodel.Curve. Each Curve.At fills the miss-probability
// table up to the profile's largest tracked distance and adds every
// cluster's nonzero read slots: 6-73 us per size at QuickScale and
// 60-95 us for paper-scale MP3D on a 2-vCPU host. So estimating a
// 10^4-point space costs a few profile builds plus that much per
// point. Every point's system shape comes from
// PointConfig, as in sweeps (multiprogramming: one cluster, ppc
// scheduling slots). A failure is reported as the serial walk would
// meet it: the error of the lowest-index spec that fails, or the
// context's once it is done.
func EstimatePoints(ctx context.Context, w Workload, specs []PointSpec, s Scale, eng EngineOptions) ([]uint64, error) {
	tc := &traceCounters{reg: eng.Metrics}
	type ppcCurve struct {
		curve *rdmodel.Curve
		err   error
	}
	curves := make(map[int]*ppcCurve)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, spec := range specs {
		if curves[spec.PPC] != nil {
			continue
		}
		c := &ppcCurve{}
		curves[spec.PPC] = c
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			if c.err = ctx.Err(); c.err != nil {
				return
			}
			prof, err := profileFor(w, PointConfig(w, spec.PPC, spec.SCCBytes, sysmodel.Axes{}), s, tc, eng.TraceCache)
			if err != nil {
				c.err = err
				return
			}
			c.curve = prof.Curve()
		}()
	}
	wg.Wait()

	out := make([]uint64, len(specs))
	for i, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := curves[spec.PPC]
		if c.err != nil {
			return nil, c.err
		}
		pt, err := c.curve.At(spec.SCCBytes)
		if err != nil {
			return nil, err
		}
		out[i] = pt.EstCycles
	}
	return out, nil
}
