// The search triage path: batch analytic cycle estimates through the
// reuse-distance curve (rdmodel.Curve). Where the analytic *backend*
// (analytic.go) produces full grid points — complete results, engine
// workers, progress events — this path answers only "roughly how many
// cycles would this point cost?" for thousands of candidates at once,
// which is what the adaptive search's pre-triage stage needs. Profiles
// are shared with the analytic backend through the same cache; each
// distinct processor count folds its profile into a curve once, and
// each size is then one O(cap) pass over that curve's histograms.

package explorer

import (
	"context"

	"sccsim/internal/rdmodel"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// EstimatePoints returns the analytic estimated cycle count for each
// design point, positionally. It resolves one trace and reuse-distance
// profile per distinct processor count (through the shared caches and
// the optional disk cache) and evaluates every size off the profile's
// rdmodel.Curve. Each Curve.At is O(cap): it rebuilds the cap-long
// miss-probability table and scans every cluster's histogram. So
// estimating a 10^4-point space costs a few profile builds plus O(cap)
// work per point. Every point's system shape comes from PointConfig,
// as in sweeps (multiprogramming: one cluster, ppc scheduling slots).
func EstimatePoints(ctx context.Context, w Workload, specs []PointSpec, s Scale, dc trace.Store) ([]uint64, error) {
	curves := make(map[int]*rdmodel.Curve)
	out := make([]uint64, len(specs))
	for i, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		curve, ok := curves[spec.PPC]
		if !ok {
			prof, err := profileFor(w, PointConfig(w, spec.PPC, spec.SCCBytes, sysmodel.Axes{}), s, nil, dc)
			if err != nil {
				return nil, err
			}
			curve = prof.Curve()
			curves[spec.PPC] = curve
		}
		pt, err := curve.At(spec.SCCBytes)
		if err != nil {
			return nil, err
		}
		out[i] = pt.EstCycles
	}
	return out, nil
}
