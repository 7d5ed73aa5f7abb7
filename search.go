// Adaptive design-space search: the facade wiring that answers the
// paper's closing question ("what should the ratio of processors to
// cache memory size be?") over spaces far larger than the paper's 8x4
// grid without exhaustively simulating them. SearchCtx drives the
// internal/search pipeline — static constraint pruning, analytic
// triage through the reuse-distance curve, successive halving with
// early abandonment, exact confirmation of the survivors — against
// both backends at once: the analytic model ranks, the exact simulator
// confirms. The headline contract: the same exact-backend Pareto
// frontier as an exhaustive sweep, at a fraction of the exact
// simulations.
package sccsim

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sccsim/internal/explorer"
	"sccsim/internal/obs"
	"sccsim/internal/search"
)

// SearchSpec declares one search: the candidate space, the objectives
// to minimize, hard constraints, and the strategy/budget/seed knobs.
// The zero value searches the paper's grid for the cycles-vs-area
// frontier adaptively. See internal/search.Spec for field semantics.
type SearchSpec = search.Spec

// SearchSpace is the candidate design-point space: explicit axis lists
// or a size range, defaulting to the paper's sweep axes.
type SearchSpace = search.Space

// SearchCandidate is one (processors per cluster, SCC size) candidate.
type SearchCandidate = search.Candidate

// SearchConstraint is one hard constraint on a candidate metric
// (cycles, area_mm2, cluster_mm2, scc_bytes, procs_per_cluster,
// cost_perf); zero Min/Max bounds are open.
type SearchConstraint = search.Constraint

// SearchObjective names a minimization objective.
type SearchObjective = search.Objective

// The search objectives: adjusted execution cycles, system silicon
// area, and (negated, so smaller is better) cost/performance.
const (
	SearchObjectiveCycles   = search.ObjectiveCycles
	SearchObjectiveArea     = search.ObjectiveArea
	SearchObjectiveCostPerf = search.ObjectiveCostPerf
)

// SearchStrategy names a search strategy.
type SearchStrategy = search.Strategy

// The strategies: auto picks adaptive, or random sampling plus local
// search when the space is too large to triage exhaustively;
// exhaustive is the reference strategy that simulates every feasible
// candidate.
const (
	SearchAuto       = search.StrategyAuto
	SearchExhaustive = search.StrategyExhaustive
	SearchAdaptive   = search.StrategyAdaptive
	SearchRandom     = search.StrategyRandom
)

// SearchResult is a completed search: the exact-confirmed Pareto
// frontier, the best cost/performance point, every simulated point,
// and the per-stage accounting.
type SearchResult = search.Result

// SearchStats is the per-stage accounting of one search.
type SearchStats = search.Stats

// SearchPoint is one exact-confirmed, Section 4-priced design point.
type SearchPoint = search.PointResult

// SearchProgress is one live update from a running search.
type SearchProgress = search.Progress

// WithSearchProgress installs a live progress hook on SearchCtx,
// called serially as the pipeline stages advance (triage counts, then
// exact-simulation rounds). Sweeps ignore it; see WithProgress for the
// per-point sweep hook.
func WithSearchProgress(fn func(SearchProgress)) Opt {
	return func(c *expCfg) { c.searchProgress = fn }
}

// DefaultSearchMargin returns the calibrated analytic-triage margin
// for a workload: the relative error bound the pruning stages assume
// when comparing reuse-distance cycle estimates against exact results.
// The values cover the measured estimate error on the paper grid with
// headroom (the calibration is recorded on searchMargins);
// SearchSpec.Margin overrides them.
func DefaultSearchMargin(w Workload) float64 {
	if m, ok := searchMargins[string(w)]; ok {
		return m
	}
	return 0.35
}

// searchMargins holds the per-workload triage margins. Calibration:
// max |exact-est|/est over the feasible paper grid at QuickScale was
// barnes-hut 0.39 (bank contention under sharing, which the analytic
// model leaves out), mp3d 0.07, cholesky 0.06, multiprog 0.11; each
// margin is that error with generous headroom.
var searchMargins = map[string]float64{
	string(BarnesHut): 0.50,
	string(MP3D):      0.18,
	string(Cholesky):  0.18,
	string(Multiprog): 0.22,
}

// searchEvaluator adapts the explorer to the search pipeline's
// Evaluator: analytic estimates come from the shared reuse-distance
// curves, exact confirmations are one ExactCycles batch each (in-order
// results keep the runner deterministic at any parallelism), which
// simulates only the candidates no earlier exact run in the process
// has.
type searchEvaluator struct {
	w     Workload
	scale Scale
	sim   Options
	eng   explorer.EngineOptions
}

func searchPointSpecs(cands []search.Candidate) []explorer.PointSpec {
	specs := make([]explorer.PointSpec, len(cands))
	for i, c := range cands {
		specs[i] = explorer.PointSpec{PPC: c.PPC, SCCBytes: c.SCCBytes}
	}
	return specs
}

func (e *searchEvaluator) Estimate(ctx context.Context, cands []search.Candidate) ([]uint64, error) {
	return explorer.EstimatePoints(ctx, e.w, searchPointSpecs(cands), e.scale, e.eng)
}

func (e *searchEvaluator) Exact(ctx context.Context, cands []search.Candidate) ([]uint64, error) {
	cfgs := make([]Config, len(cands))
	for i, c := range cands {
		cfgs[i] = explorer.PointConfig(e.w, c.PPC, c.SCCBytes, e.eng.Axes)
	}
	return explorer.ExactCycles(ctx, e.w, cfgs, e.scale, e.sim, e.eng)
}

// SearchCtx searches a workload's design space for the spec's
// objective frontier. The pipeline prunes statically infeasible
// candidates, ranks the rest with the analytic reuse-distance model,
// and confirms survivors on the exact simulator by successive halving
// — so the returned frontier contains only exact-simulated points
// while most of the space never reaches the simulator. A fixed
// SearchSpec.Seed makes the result identical across runs and
// WithParallelism values.
//
// Confirmation reads only a point's cycles, so a candidate that an
// earlier search, sweep, point or cost/performance entry in this
// process already simulated exactly (same workload, scale, system and
// simulator options) is confirmed from the engine's exact-cycles table
// instead of simulated again; ResetTraceCache empties it. The result
// is identical either way: Stats.ExactSims still counts every
// confirmation and the budget still spends them, while WithProgress
// reports only the points simulated. Under WithVerify every
// confirmation is simulated.
//
// SearchCtx composes with the scale, parallelism, trace-cache,
// verification and observability options. It drives both backends
// itself, so WithBackend(BackendAnalytic) is rejected, as are the
// simulator-tuning and trace-export options (WithSimOptions,
// WithTraceExport) whose per-run artifacts the batched pipeline cannot
// honor. With WithManifest the run writes a versioned manifest whose
// points are the confirmed frontier and whose Search stamp records the
// strategy, budget, seed and per-stage accounting.
func SearchCtx(ctx context.Context, w Workload, spec SearchSpec, opts ...Opt) (res *SearchResult, err error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.backend == BackendAnalytic {
		return nil, fmt.Errorf("sccsim: search drives both backends itself (analytic triage, exact confirmation); drop WithBackend")
	}
	if c.simSet {
		return nil, fmt.Errorf("sccsim: WithSimOptions tunes individual simulations; the search pipeline batches them — run Do on the chosen point instead")
	}
	if c.traceW != nil {
		return nil, fmt.Errorf("sccsim: WithTraceExport records one run's timeline; the search pipeline batches runs — export a trace from Do on the chosen point instead")
	}
	if c.cfg != nil {
		return nil, fmt.Errorf("sccsim: WithConfig pins a single design point; the search explores a space — use SearchSpec.Space")
	}
	// Architecture axes: the spec's axes win over WithAxes; either way
	// both the runner (which decides whether analytic triage is sound)
	// and the exact evaluator (which builds the configurations) see the
	// same resolved axes.
	if spec.Axes != nil && !spec.Axes.IsZero() {
		c.axes = *spec.Axes
		if err := c.axes.Validate(); err != nil {
			return nil, err
		}
	} else if !c.axes.IsZero() {
		a := c.axes
		spec.Axes = &a
	}
	eng := c.engine()
	// The engine's sweep-level telemetry hooks describe one grid sweep;
	// a search runs many small batches, so they stay off here.
	eng.Report = nil

	if c.logger != nil {
		c.logger.Info("search start", "workload", string(w), "strategy", string(spec.Strategy))
		defer func(begin time.Time) {
			if err != nil {
				c.logger.Error("search failed", "workload", string(w),
					"err", err.Error(), "dur_ms", time.Since(begin).Milliseconds())
			}
		}(time.Now())
	}

	r := &search.Runner{
		Eval:     &searchEvaluator{w: w, scale: c.scale, sim: c.sim, eng: eng},
		Workload: string(w),
		// The workload fixes the cluster count at every point.
		Clusters:      explorer.PointConfig(w, c.ppc, c.scc, c.axes).Clusters,
		DefaultMargin: DefaultSearchMargin(w),
		Metrics:       c.metrics,
		Logger:        c.logger,
		Progress:      c.searchProgress,
	}
	res, err = r.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	if c.manifestW != nil {
		m, merr := buildSearchManifest(w, c, spec, res)
		if merr != nil {
			return nil, merr
		}
		if merr := obs.WriteManifest(c.manifestW, m); merr != nil {
			return nil, merr
		}
	}
	return res, nil
}

// buildSearchManifest assembles the run manifest of a completed
// search: the confirmed frontier as the point records (deterministic —
// no wall times) and the strategy/stage accounting as the Search
// stamp.
func buildSearchManifest(w Workload, c expCfg, spec SearchSpec, res *SearchResult) (*RunManifest, error) {
	ppcs, sizes, err := spec.Space.Axes()
	if err != nil {
		return nil, err
	}
	m := &RunManifest{
		Version:   obs.ManifestVersion,
		Tool:      "sccsim",
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host: obs.Host{
			OS: runtime.GOOS, Arch: runtime.GOARCH,
			CPUs: runtime.NumCPU(), GoVersion: runtime.Version(),
		},
		Workload:    string(w),
		Backend:     "search",
		RequestID:   c.requestID,
		Scale:       c.scale,
		Parallelism: c.parallelism,
		Grid:        obs.GridAxes{SCCBytes: sizes, ProcsPerCluster: ppcs},
	}
	agg := obs.Aggregate{}
	for _, p := range res.Frontier {
		rec := obs.PointRecord{
			ProcsPerCluster: p.PPC,
			SCCBytes:        p.SCCBytes,
			Clusters:        p.Clusters,
			Backend:         string(BackendExact),
			Cycles:          p.Cycles,
		}
		m.Points = append(m.Points, rec)
		agg.Points++
		if agg.BestCycles == 0 || rec.Cycles < agg.BestCycles {
			agg.BestCycles = rec.Cycles
		}
		if rec.Cycles > agg.WorstCycles {
			agg.WorstCycles = rec.Cycles
		}
	}
	m.Aggregate = agg
	st := res.Stats
	m.Search = &obs.SearchStamp{
		Strategy:      st.Strategy,
		Budget:        st.Budget,
		Seed:          st.Seed,
		Margin:        st.Margin,
		SpaceSize:     st.SpaceSize,
		StaticPruned:  st.StaticPruned,
		TriagePruned:  st.TriagePruned,
		Plausible:     st.Plausible,
		Sampled:       st.Sampled,
		AnalyticEvals: st.AnalyticEvals,
		ExactSims:     st.ExactSims,
		Abandoned:     st.Abandoned,
		Rounds:        st.Rounds,
		FrontierSize:  len(res.Frontier),
	}
	if c.metrics != nil {
		m.Metrics = c.metrics.Snapshot()
	}
	return m, nil
}
