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
	"sccsim/internal/explorer"
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
	if _, err := explorer.CompareBackends(j.exp.Workload, eg, ag, s.reg); err != nil {
		if s.logger != nil {
			s.logger.Warn("crossval: twin grids do not pair", "job", j.id, "err", err)
		}
		return
	}
	s.reg.Counter("serve.crossval_pairs").Inc()
}
