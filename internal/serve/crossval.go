// Live cross-validation gauges: when the result cache holds both the
// exact and the analytic grid of the same experiment (the "twin" of a
// job's content key with only the backend flipped), the server compares
// them point by point with the verify subsystem's cross-report and
// publishes the per-workload error summary as float gauges — the
// analytic backend's accuracy contract as a scrapeable live metric
// instead of a test-only assertion.

package serve

import (
	"sccsim"
	"sccsim/internal/verify"
)

// publishCrossval compares a just-finished sweep job with its
// other-backend twin and sets the crossval.<workload>.* gauges. Both
// jobs are terminal; their grids cover the same design points because
// their experiments differ only in the backend.
func (s *Server) publishCrossval(j, twin *job) {
	exact, analytic := j, twin
	if j.exp.Backend == sccsim.BackendAnalytic {
		exact, analytic = twin, j
	}
	eg, ag := exact.snapshot().grid, analytic.snapshot().grid
	if eg == nil || ag == nil {
		return
	}
	var pts []verify.CrossPoint
	for si, row := range eg.Points {
		if si >= len(ag.Points) {
			return
		}
		for pi, ep := range row {
			if pi >= len(ag.Points[si]) {
				return
			}
			ap := ag.Points[si][pi]
			pts = append(pts, verify.CrossPoint{
				Clusters:        ep.Config.Clusters,
				ProcsPerCluster: ep.Config.ProcsPerCluster,
				SCCBytes:        ep.Config.SCCBytes,

				ExactMissRate:    ep.Result.ReadMissRate(),
				AnalyticMissRate: ap.Result.ReadMissRate(),
				ExactCycles:      ep.Result.Cycles,
				AnalyticCycles:   ap.Result.Cycles,
			})
		}
	}
	if len(pts) == 0 {
		return
	}
	rep := verify.NewCrossReport(string(j.exp.Workload), pts)
	name := "crossval." + string(j.exp.Workload)
	s.reg.FGauge(name + ".max_abs_err").Set(rep.MaxAbsErr)
	s.reg.FGauge(name + ".mean_abs_err").Set(rep.MeanAbsErr)
	s.reg.FGauge(name + ".max_rel_err").Set(rep.MaxRelErr)
	s.reg.FGauge(name + ".max_cycle_rel_err").Set(rep.MaxCycleRelErr)
	s.reg.Counter("serve.crossval_pairs").Inc()
}
