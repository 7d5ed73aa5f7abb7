// Cross-validation driver: the analytic backend ships with a measured
// accuracy contract, and this file is where it is measured. Running
// the same full design-space grid on both backends and comparing every
// point is the oracle pattern the verify subsystem already uses for
// the simulator itself (internal/verify keeps the comparison logic,
// simulator-free); the per-workload default bounds below are the
// contract `make verify-analytic` and the cross-validation tests
// assert.
package sccsim

import (
	"context"

	"sccsim/internal/explorer"
	"sccsim/internal/verify"
)

// CrossPoint pairs one design point's exact and analytic results.
type CrossPoint = verify.CrossPoint

// CrossBounds is a workload's analytic accuracy contract; see
// DefaultCrossBounds for the measured defaults.
type CrossBounds = verify.CrossBounds

// CrossReport is a completed analytic-vs-exact comparison over a full
// grid. Check asserts it against bounds; String renders the CLI table.
type CrossReport = verify.CrossReport

// DefaultCrossBounds returns the per-workload accuracy contract of the
// analytic backend: ceilings on the absolute and relative read
// miss-ratio error and on the cycle-estimate error, per design point
// and grid-wide, calibrated against full-grid quick-scale
// cross-validations with roughly 2x headroom over the observed worst
// case. Regressions in the reuse-distance model trip these bounds in
// `make verify-analytic` and the cross-validation tests.
//
// The bounds reflect what the model does not capture: coherence
// invalidation misses and lock-spin re-reads (the single worst point
// everywhere is 8 processors on the smallest 4KB cache, where MP3D's
// exact miss ratio jumps to 0.76 against an analytic 0.52), and
// bank/bus contention in the cycle estimate. The per-point ceilings
// are dominated by that 8P/4KB corner; the mean bounds show the model
// is far tighter across the rest of the grid (observed means are
// 0.013-0.027 everywhere).
func DefaultCrossBounds(w Workload) CrossBounds {
	switch w {
	case MP3D:
		return CrossBounds{MaxAbsErr: 0.35, MeanAbsErr: 0.04, MaxRelErr: 0.50, MaxCycleRelErr: 0.50}
	case Cholesky:
		return CrossBounds{MaxAbsErr: 0.12, MeanAbsErr: 0.05, MaxRelErr: 0.25, MaxCycleRelErr: 0.20}
	case Multiprog:
		return CrossBounds{MaxAbsErr: 0.20, MeanAbsErr: 0.03, MaxRelErr: 0.45, MaxCycleRelErr: 0.40}
	default: // BarnesHut: miss ratios sit near RelFloor, so the
		// relative bound is loose by construction; the absolute one is
		// the meaningful ceiling.
		return CrossBounds{MaxAbsErr: 0.08, MeanAbsErr: 0.03, MaxRelErr: 1.50, MaxCycleRelErr: 1.00}
	}
}

// CrossValidate runs the full design-space grid on both backends and
// pairs the results point by point: the report carries each point's
// exact and analytic read miss ratios and cycle counts with their
// error summary. Assert it with Check (see DefaultCrossBounds); render
// it with String. The options apply to both sweeps — scale,
// parallelism, trace cache and observability compose; options only the
// exact backend honors (WithSimOptions, WithVerify, WithTraceExport)
// are rejected because the comparison must run both backends on the
// paper's default model.
func CrossValidate(ctx context.Context, w Workload, opts ...Opt) (*CrossReport, error) {
	// Clamp capacity so the two appends cannot share a backing array.
	opts = opts[:len(opts):len(opts)]
	// Surface analytic-incompatible options before paying for the exact
	// sweep.
	c, err := resolve(append(opts, WithBackend(BackendAnalytic)))
	if err != nil {
		return nil, err
	}
	exact, err := SweepCtx(ctx, w, append(opts, WithBackend(BackendExact))...)
	if err != nil {
		return nil, err
	}
	analytic, err := SweepCtx(ctx, w, append(opts, WithBackend(BackendAnalytic))...)
	if err != nil {
		return nil, err
	}
	rep, err := explorer.CompareBackends(w, exact, analytic, c.metrics)
	if err != nil {
		return nil, err
	}
	c.metrics.Counter("crossval.runs").Inc()
	return rep, nil
}
