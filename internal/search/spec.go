// Package search is the adaptive design-space search engine: declarative
// objectives and constraints over a generalized (processors-per-cluster,
// SCC size) point space, Pareto-frontier extraction, and a strategy
// pipeline that recovers the exact-backend frontier with a fraction of
// the exact simulations. The pipeline is (1) static constraint pruning
// — area feasibility and user constraints that need no simulation at
// all, (2) analytic pre-triage — the reuse-distance model's
// one-pass-all-sizes curve (rdmodel.Curve) ranks every surviving
// candidate and prunes those provably dominated even under the model's
// error margin, and (3) successive halving — exact simulation of the
// most promising half per round, early-abandoning candidates an exact
// result already dominates, until the budget or the candidates run out.
// Spaces too large to confirm exhaustively use seeded random sampling
// plus axis-neighbor local search around the provisional frontier.
//
// The package prices candidates with the same Section 4 rules as
// internal/costperf (area.Custom feasibility, load-latency relative
// time, performance per silicon) but deliberately does not import it —
// costperf imports this package for the shared Pareto extraction.
package search

import (
	"fmt"
	"sort"

	"sccsim/internal/sysmodel"
)

// Objective names a quantity the search optimizes. Objectives form the
// axes of the Pareto frontier; all are minimized except ObjectiveCostPerf,
// which is maximized (internally negated).
type Objective string

// The supported objectives.
const (
	// ObjectiveCycles minimizes latency-adjusted execution time
	// (simulated cycles scaled by the implementation's load-latency
	// factor, as in costperf.FrontierPoint.AdjCycles).
	ObjectiveCycles Objective = "cycles"
	// ObjectiveArea minimizes total system silicon in mm².
	ObjectiveArea Objective = "area_mm2"
	// ObjectiveCostPerf maximizes performance per 1000 mm² of system
	// silicon.
	ObjectiveCostPerf Objective = "cost_perf"
)

// Strategy selects the search pipeline.
type Strategy string

// The supported strategies.
const (
	// StrategyAuto picks StrategyAdaptive, or StrategyRandom for spaces
	// above autoRandomThreshold points.
	StrategyAuto Strategy = "auto"
	// StrategyExhaustive exact-simulates every statically feasible
	// candidate — the reference the adaptive pipeline is measured
	// against.
	StrategyExhaustive Strategy = "exhaustive"
	// StrategyAdaptive runs the full pipeline: static pruning, analytic
	// triage, successive halving with early abandonment.
	StrategyAdaptive Strategy = "adaptive"
	// StrategyRandom seeds the pipeline with a random sample of the
	// feasible space and refines the provisional frontier by
	// axis-neighbor local search.
	StrategyRandom Strategy = "random"
)

// autoRandomThreshold is the space size above which StrategyAuto
// switches from adaptive (triage every point) to random sampling.
const autoRandomThreshold = 100_000

// maxSpacePoints bounds enumeration; a generated range that exceeds it
// is rejected rather than silently truncated.
const maxSpacePoints = 1 << 20

// Space declares the candidate point space. Either list axis values
// explicitly or, for SCC sizes, generate an inclusive range; an empty
// axis defaults to the paper's sweep (sysmodel.ProcsPerClusterSweep,
// sysmodel.SCCSizes).
type Space struct {
	// ProcsPerCluster lists the processors-per-cluster axis values.
	ProcsPerCluster []int `json:"procs_per_cluster,omitempty"`
	// SCCBytes lists explicit SCC sizes in bytes. When set it wins over
	// the range fields.
	SCCBytes []int `json:"scc_bytes,omitempty"`
	// SCCBytesMin, SCCBytesMax and SCCBytesStep generate the size axis
	// {min, min+step, ...} up to and including max. Min and step must be
	// multiples of the cache line size so every candidate is simulable.
	SCCBytesMin  int `json:"scc_bytes_min,omitempty"`
	SCCBytesMax  int `json:"scc_bytes_max,omitempty"`
	SCCBytesStep int `json:"scc_bytes_step,omitempty"`
}

// Candidate is one point of the space.
type Candidate struct {
	// PPC is the candidate's processors per cluster.
	PPC int `json:"procs_per_cluster"`
	// SCCBytes is the candidate's per-cluster SCC size in bytes.
	SCCBytes int `json:"scc_bytes"`
}

// Axes returns the space's resolved axis values, sorted ascending and
// deduplicated: the ppc list and the size list the enumeration is the
// cross product of. It validates the same conditions Enumerate does.
func (sp Space) Axes() (ppcs, sizes []int, err error) {
	ppcs = sp.ProcsPerCluster
	if len(ppcs) == 0 {
		ppcs = append([]int(nil), sysmodel.ProcsPerClusterSweep...)
	}
	for _, p := range ppcs {
		if p < 1 {
			return nil, nil, fmt.Errorf("search: procs_per_cluster %d below 1", p)
		}
	}
	switch {
	case len(sp.SCCBytes) > 0:
		sizes = append([]int(nil), sp.SCCBytes...)
		for _, s := range sizes {
			if s < sysmodel.LineSize || s%sysmodel.LineSize != 0 {
				return nil, nil, fmt.Errorf("search: scc_bytes %d not a positive multiple of the %d-byte line", s, sysmodel.LineSize)
			}
		}
	case sp.SCCBytesMin != 0 || sp.SCCBytesMax != 0 || sp.SCCBytesStep != 0:
		min, max, step := sp.SCCBytesMin, sp.SCCBytesMax, sp.SCCBytesStep
		if min < sysmodel.LineSize || min%sysmodel.LineSize != 0 {
			return nil, nil, fmt.Errorf("search: scc_bytes_min %d not a positive multiple of the %d-byte line", min, sysmodel.LineSize)
		}
		if step < sysmodel.LineSize || step%sysmodel.LineSize != 0 {
			return nil, nil, fmt.Errorf("search: scc_bytes_step %d not a positive multiple of the %d-byte line", step, sysmodel.LineSize)
		}
		if max < min {
			return nil, nil, fmt.Errorf("search: scc_bytes_max %d below scc_bytes_min %d", max, min)
		}
		// Count before generating: a huge range must fail here, not
		// exhaust memory (or overflow s) on the way to the cap check.
		n := (max-min)/step + 1
		if n > maxSpacePoints {
			return nil, nil, fmt.Errorf("search: scc_bytes range has %d sizes, above the %d-point cap", n, maxSpacePoints)
		}
		for i := 0; i < n; i++ {
			sizes = append(sizes, min+i*step)
		}
	default:
		sizes = append([]int(nil), sysmodel.SCCSizes...)
	}
	ppcs = sortedUnique(ppcs)
	sizes = sortedUnique(sizes)
	if n := len(ppcs) * len(sizes); n > maxSpacePoints {
		return nil, nil, fmt.Errorf("search: space has %d points, above the %d cap", n, maxSpacePoints)
	}
	return ppcs, sizes, nil
}

// Enumerate expands the space into its candidates in deterministic
// order: ppc ascending, then size ascending.
func (sp Space) Enumerate() ([]Candidate, error) {
	ppcs, sizes, err := sp.Axes()
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, 0, len(ppcs)*len(sizes))
	for _, p := range ppcs {
		for _, s := range sizes {
			out = append(out, Candidate{PPC: p, SCCBytes: s})
		}
	}
	return out, nil
}

func sortedUnique(v []int) []int {
	out := append([]int(nil), v...)
	sort.Ints(out)
	n := 0
	for i, x := range out {
		if i == 0 || x != out[n-1] {
			out[n] = x
			n++
		}
	}
	return out[:n]
}

// Constraint is a hard bound on one metric of a candidate. A zero Min
// or Max means that side is unbounded. Static metrics (area, axes)
// prune before any modeling; cycle metrics prune conservatively at
// triage (the analytic bound widened by the margin) and exactly on
// simulated points.
type Constraint struct {
	// Metric names the constrained quantity: "cycles" (exact simulated
	// cycles), "area_mm2" (system silicon), "cluster_mm2",
	// "scc_bytes", "procs_per_cluster", or "cost_perf".
	Metric string `json:"metric"`
	// Min is the inclusive lower bound (0 = unbounded).
	Min float64 `json:"min,omitempty"`
	// Max is the inclusive upper bound (0 = unbounded).
	Max float64 `json:"max,omitempty"`
}

// The constraint metrics Validate accepts.
var constraintMetrics = map[string]bool{
	"cycles": true, "area_mm2": true, "cluster_mm2": true,
	"scc_bytes": true, "procs_per_cluster": true, "cost_perf": true,
}

// Spec is the declarative input to a search: the space, what to
// optimize, what to require, and how hard to try.
type Spec struct {
	// Space is the candidate space; its zero value is the paper grid.
	Space Space `json:"space"`
	// Axes overlays architecture-axis overrides (line size,
	// associativity, replacement policy, hierarchy) on every candidate
	// the search simulates. nil or the zero value keeps the paper's
	// defaults and byte-identical behavior. Non-default axes disable
	// the analytic triage stage — the reuse-distance curve and its
	// calibrated margins model the default axes only — so the pipeline
	// degrades to budgeted successive halving over exact simulation.
	Axes *sysmodel.Axes `json:"axes,omitempty"`
	// Objectives are the frontier axes; empty defaults to
	// [cycles, area_mm2].
	Objectives []Objective `json:"objectives,omitempty"`
	// Constraints are hard bounds candidates must satisfy.
	Constraints []Constraint `json:"constraints,omitempty"`
	// Strategy selects the pipeline; empty defaults to auto.
	Strategy Strategy `json:"strategy,omitempty"`
	// Budget caps exact simulations; 0 means enough to confirm every
	// plausible candidate (adaptive) or sample (random).
	Budget int `json:"budget,omitempty"`
	// Margin is the relative error the analytic cycle estimate is
	// trusted to; triage only prunes candidates dominated even when
	// estimates are off by this factor. 0 picks the runner's
	// per-workload default.
	Margin float64 `json:"margin,omitempty"`
	// Seed fixes every randomized decision; equal seeds give identical
	// results at any parallelism.
	Seed int64 `json:"seed,omitempty"`
	// SampleSize is the random strategy's initial sample; 0 defaults to
	// min(256, feasible space).
	SampleSize int `json:"sample_size,omitempty"`
	// LocalRounds caps the random strategy's local-search refinement
	// rounds; 0 defaults to 3.
	LocalRounds int `json:"local_rounds,omitempty"`
}

// Validate checks the spec without running anything: axis values,
// objective and strategy names, constraint metrics and bounds, and
// non-negative budgets. A valid spec can still find nothing (an
// over-constrained space yields an empty frontier, not an error).
func (s Spec) Validate() error {
	if _, _, err := s.Space.Axes(); err != nil {
		return err
	}
	if s.Axes != nil && !s.Axes.IsZero() {
		if err := s.Axes.Validate(); err != nil {
			return err
		}
	}
	seen := map[Objective]bool{}
	for _, o := range s.Objectives {
		switch o {
		case ObjectiveCycles, ObjectiveArea, ObjectiveCostPerf:
		default:
			return fmt.Errorf("search: unknown objective %q (want cycles, area_mm2 or cost_perf)", o)
		}
		if seen[o] {
			return fmt.Errorf("search: duplicate objective %q", o)
		}
		seen[o] = true
	}
	switch s.Strategy {
	case "", StrategyAuto, StrategyExhaustive, StrategyAdaptive, StrategyRandom:
	default:
		return fmt.Errorf("search: unknown strategy %q (want auto, exhaustive, adaptive or random)", s.Strategy)
	}
	for _, c := range s.Constraints {
		if !constraintMetrics[c.Metric] {
			return fmt.Errorf("search: unknown constraint metric %q", c.Metric)
		}
		if c.Min < 0 || c.Max < 0 {
			return fmt.Errorf("search: constraint %s has a negative bound", c.Metric)
		}
		if c.Min != 0 && c.Max != 0 && c.Min > c.Max {
			return fmt.Errorf("search: constraint %s has min %g above max %g", c.Metric, c.Min, c.Max)
		}
	}
	if s.Budget < 0 {
		return fmt.Errorf("search: negative budget %d", s.Budget)
	}
	if s.Margin < 0 || s.Margin >= 1 {
		return fmt.Errorf("search: margin %g outside [0, 1)", s.Margin)
	}
	if s.SampleSize < 0 {
		return fmt.Errorf("search: negative sample_size %d", s.SampleSize)
	}
	if s.LocalRounds < 0 {
		return fmt.Errorf("search: negative local_rounds %d", s.LocalRounds)
	}
	return nil
}

// skipTriage reports whether the spec's axes put the candidates outside
// the analytic model's envelope, in which case the pipeline must not
// trust reuse-distance estimates.
func (s Spec) skipTriage() bool {
	return s.Axes != nil && !s.Axes.IsZero()
}

// objectives returns the spec's objective list with the default
// applied.
func (s Spec) objectives() []Objective {
	if len(s.Objectives) > 0 {
		return s.Objectives
	}
	return []Objective{ObjectiveCycles, ObjectiveArea}
}
