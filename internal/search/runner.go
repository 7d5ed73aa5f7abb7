package search

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"

	"sccsim/internal/area"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
)

// Evaluator is the search's window onto the simulation backends. Both
// methods answer positionally: result i belongs to cands[i]. Estimate
// is the analytic backend's one-pass-all-sizes cycle estimate (cheap,
// called for thousands of candidates); Exact is the exact simulator
// (expensive, called only for candidates the pipeline could not prune).
// Implementations must be deterministic in the candidate list — the
// runner's reproducibility guarantee is theirs to keep.
type Evaluator interface {
	// Estimate returns analytic cycle estimates for the candidates.
	Estimate(ctx context.Context, cands []Candidate) ([]uint64, error)
	// Exact returns exact simulated cycle counts for the candidates.
	Exact(ctx context.Context, cands []Candidate) ([]uint64, error)
}

// Progress is one live update from a running search. Phases are
// "triage" (analytic estimation and pruning, Done/Total count
// candidates) and "exact"/"local" (simulation rounds, Done counts
// simulations against the Total planned).
type Progress struct {
	// Phase names the pipeline stage.
	Phase string `json:"phase"`
	// Round is the 1-based exact-simulation round, 0 before the first.
	Round int `json:"round"`
	// Done and Total are the stage's progress counters.
	Done  int `json:"done"`
	Total int `json:"total"`
	// ExactSims is the running exact-confirmation count (Stats.ExactSims).
	ExactSims int `json:"exact_sims"`
}

// PointResult is one candidate the search confirmed by exact
// simulation, priced with the Section 4 rules (the same formulas as
// costperf.FrontierPoint).
type PointResult struct {
	Candidate
	// Clusters is the system's cluster count (the workload fixes it).
	Clusters int `json:"clusters"`
	// LoadLatency is the load latency the implementation implies.
	LoadLatency int `json:"load_latency"`
	// EstCycles is the analytic triage estimate (0 when the strategy
	// skipped estimation, e.g. exhaustive).
	EstCycles uint64 `json:"est_cycles,omitempty"`
	// Cycles is the exact simulated cycle count.
	Cycles uint64 `json:"cycles"`
	// AdjCycles is Cycles scaled by the load-latency factor.
	AdjCycles float64 `json:"adj_cycles"`
	// ClusterMM2 and SystemMM2 price one cluster and the whole system.
	ClusterMM2 float64 `json:"cluster_mm2"`
	SystemMM2  float64 `json:"system_mm2"`
	// Perf is 1e9/AdjCycles; CostPerf is Perf per 1000 mm².
	Perf     float64 `json:"perf"`
	CostPerf float64 `json:"cost_perf"`
}

// Stats counts what each pipeline stage did — the search's efficiency
// claim in numbers.
type Stats struct {
	// SpaceSize is the enumerated candidate count.
	SpaceSize int `json:"space_size"`
	// StaticPruned were removed before any modeling (area infeasibility
	// or static constraints).
	StaticPruned int `json:"static_pruned"`
	// TriagePruned were removed by the analytic margin test; Plausible
	// survived it.
	TriagePruned int `json:"triage_pruned"`
	Plausible    int `json:"plausible"`
	// Sampled is the random strategy's initial sample size (0 otherwise).
	Sampled int `json:"sampled,omitempty"`
	// AnalyticEvals counts analytic estimates. ExactSims counts exact
	// confirmations, which the budget spends; the Evaluator may serve
	// some from simulations an earlier search or sweep ran (sccsim's
	// reads the engine's exact-cycles table), so fewer may be simulated.
	AnalyticEvals int `json:"analytic_evals"`
	ExactSims     int `json:"exact_sims"`
	// Abandoned counts candidates dropped mid-halving because an exact
	// result already dominated them.
	Abandoned int `json:"abandoned"`
	// Rounds is the number of exact-simulation batches.
	Rounds int `json:"rounds"`
	// Strategy, Margin, Budget and Seed echo the resolved inputs.
	Strategy string  `json:"strategy"`
	Margin   float64 `json:"margin"`
	Budget   int     `json:"budget"`
	Seed     int64   `json:"seed"`
}

// Result is a completed search: the exact-confirmed Pareto frontier
// (sorted by system area), every exact-simulated point, and the stage
// accounting.
type Result struct {
	// Workload names the searched workload.
	Workload string `json:"workload"`
	// Frontier is the Pareto frontier over the spec's objectives,
	// every point exact-simulated, sorted by system area ascending.
	Frontier []PointResult `json:"frontier"`
	// Best is the frontier point with the highest cost/performance.
	Best *PointResult `json:"best,omitempty"`
	// Evaluated lists every exact-simulated point in axis order.
	Evaluated []PointResult `json:"evaluated,omitempty"`
	// Stats is the stage accounting.
	Stats Stats `json:"stats"`
}

// Runner executes searches against one workload's evaluator. The
// pricing context (Workload for the load-latency factor, Clusters for
// system area) must match what the evaluator simulates.
type Runner struct {
	// Eval answers analytic and exact queries.
	Eval Evaluator
	// Workload names the workload for the pipeline time factor.
	Workload string
	// Clusters is the system's cluster count.
	Clusters int
	// DefaultMargin is the triage margin when the spec leaves Margin 0
	// (the facade supplies the per-workload calibrated value); 0 falls
	// back to a conservative 0.35.
	DefaultMargin float64
	// Metrics, Logger and Progress are optional instrumentation; all
	// are nil-disabled.
	Metrics  *obs.Registry
	Logger   *slog.Logger
	Progress func(Progress)
}

// candState is one candidate's full pipeline state.
type candState struct {
	Candidate
	d                     area.ChipDesign
	clusterMM2, systemMM2 float64
	factor                float64
	est                   uint64
	estimated             bool
	exact                 uint64
	simmed                bool
}

// adj returns the candidate's best-known adjusted cycles: exact if
// simulated, else the analytic estimate.
func (c *candState) adj() float64 {
	if c.simmed {
		return float64(c.exact) * c.factor
	}
	return float64(c.est) * c.factor
}

// Run executes the spec and returns the confirmed frontier. The error
// paths are spec validation, evaluator failures and context
// cancellation; an over-constrained space returns an empty frontier.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if r.Eval == nil {
		return nil, fmt.Errorf("search: runner has no evaluator")
	}
	clusters := r.Clusters
	if clusters < 1 {
		clusters = 1
	}
	margin := spec.Margin
	if margin == 0 {
		margin = r.DefaultMargin
	}
	if margin == 0 {
		margin = 0.35
	}
	objs := spec.objectives()

	cands, err := spec.Space.Enumerate()
	if err != nil {
		return nil, err
	}
	st := Stats{SpaceSize: len(cands), Margin: margin, Budget: spec.Budget, Seed: spec.Seed}

	strategy := spec.Strategy
	if strategy == "" || strategy == StrategyAuto {
		strategy = StrategyAdaptive
		if len(cands) > autoRandomThreshold {
			strategy = StrategyRandom
		}
	}
	st.Strategy = string(strategy)

	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan("search.static")
	feas := r.staticStage(cands, spec.Constraints, clusters)
	st.StaticPruned = len(cands) - len(feas)
	sp.SetAttr("space", fmt.Sprint(len(cands)))
	sp.SetAttr("pruned", fmt.Sprint(st.StaticPruned))
	sp.End()

	s := &searchRun{r: r, spec: spec, objs: objs, margin: margin, clusters: clusters, st: &st, tr: tr}
	switch strategy {
	case StrategyExhaustive:
		err = s.runExhaustive(ctx, feas)
	case StrategyRandom:
		err = s.runRandom(ctx, feas)
	default:
		err = s.runAdaptive(ctx, feas)
	}
	if err != nil {
		return nil, err
	}

	res := s.assemble()
	r.publish(&st)
	if r.Logger != nil {
		r.Logger.Info("search done",
			"workload", r.Workload, "strategy", st.Strategy,
			"space", st.SpaceSize, "static_pruned", st.StaticPruned,
			"triage_pruned", st.TriagePruned, "exact_sims", st.ExactSims,
			"frontier", len(res.Frontier))
	}
	return res, nil
}

// staticStage prices every candidate and keeps the buildable ones that
// satisfy the statically decidable constraints.
func (r *Runner) staticStage(cands []Candidate, cons []Constraint, clusters int) []*candState {
	var out []*candState
	for _, c := range cands {
		d, err := area.Custom(c.PPC, c.SCCBytes)
		if err != nil || !d.Fits() || d.SignalPads > 1500 {
			continue
		}
		cs := &candState{
			Candidate:  c,
			d:          d,
			clusterMM2: d.ClusterArea(),
			factor:     pipeline.RelTimeFor(r.Workload, d.LoadLatency),
		}
		cs.systemMM2 = cs.clusterMM2 * float64(clusters)
		if !staticOK(cs, cons) {
			continue
		}
		out = append(out, cs)
	}
	return out
}

// staticOK applies the constraints decidable without any simulation.
func staticOK(c *candState, cons []Constraint) bool {
	for _, con := range cons {
		var v float64
		switch con.Metric {
		case "area_mm2":
			v = c.systemMM2
		case "cluster_mm2":
			v = c.clusterMM2
		case "scc_bytes":
			v = float64(c.SCCBytes)
		case "procs_per_cluster":
			v = float64(c.PPC)
		default:
			continue
		}
		if !within(v, con) {
			return false
		}
	}
	return true
}

func within(v float64, con Constraint) bool {
	if con.Min != 0 && v < con.Min {
		return false
	}
	if con.Max != 0 && v > con.Max {
		return false
	}
	return true
}

// searchRun is one Run's mutable state shared by the strategy bodies.
type searchRun struct {
	r        *Runner
	spec     Spec
	objs     []Objective
	margin   float64
	clusters int
	st       *Stats
	tr       *obs.Trace
	simmed   []*candState
}

func (s *searchRun) progress(p Progress) {
	p.ExactSims = s.st.ExactSims
	if s.r.Progress != nil {
		s.r.Progress(p)
	}
}

// estimate fills the analytic estimates for cands via one evaluator
// call.
func (s *searchRun) estimate(ctx context.Context, cands []*candState) error {
	if len(cands) == 0 {
		return nil
	}
	sp := s.tr.StartSpan("search.triage")
	defer sp.End()
	plain := make([]Candidate, len(cands))
	for i, c := range cands {
		plain[i] = c.Candidate
	}
	ests, err := s.r.Eval.Estimate(ctx, plain)
	if err != nil {
		return fmt.Errorf("search: analytic triage: %w", err)
	}
	for i, c := range cands {
		c.est, c.estimated = ests[i], true
	}
	s.st.AnalyticEvals += len(cands)
	sp.SetAttr("estimated", fmt.Sprint(len(cands)))
	return nil
}

// exactBatch simulates one batch and folds the results in. left is how
// many candidates are still queued behind this batch (for the progress
// total).
func (s *searchRun) exactBatch(ctx context.Context, phase string, round int, batch []*candState, left int) error {
	if len(batch) == 0 {
		return nil
	}
	sp := s.tr.StartSpan("search.exact")
	defer sp.End()
	sp.SetAttr("round", fmt.Sprint(round))
	sp.SetAttr("batch", fmt.Sprint(len(batch)))
	plain := make([]Candidate, len(batch))
	for i, c := range batch {
		plain[i] = c.Candidate
	}
	cycles, err := s.r.Eval.Exact(ctx, plain)
	if err != nil {
		return fmt.Errorf("search: exact confirmation: %w", err)
	}
	for i, c := range batch {
		c.exact, c.simmed = cycles[i], true
	}
	s.simmed = append(s.simmed, batch...)
	s.st.ExactSims += len(batch)
	s.st.Rounds++
	if b := s.budgetLeft(); left > b {
		left = b
	}
	s.progress(Progress{Phase: phase, Round: round, Done: s.st.ExactSims, Total: s.st.ExactSims + left})
	return nil
}

// budgetLeft returns the remaining exact-simulation budget, or a
// large value when the spec set none.
func (s *searchRun) budgetLeft() int {
	if s.spec.Budget <= 0 {
		return 1 << 30
	}
	if left := s.spec.Budget - s.st.ExactSims; left > 0 {
		return left
	}
	return 0
}

// runExhaustive simulates every statically feasible candidate; it is
// the reference strategy and ignores Budget.
func (s *searchRun) runExhaustive(ctx context.Context, feas []*candState) error {
	sortByAxis(feas)
	return s.exactBatch(ctx, "exact", 1, feas, 0)
}

// runAdaptive is the headline pipeline: triage everything, prune the
// provably dominated, confirm the rest by successive halving with
// early abandonment. Specs whose axes escape the analytic model's
// envelope (Spec.skipTriage) bypass the estimate-and-prune stage and
// halve over every feasible candidate.
func (s *searchRun) runAdaptive(ctx context.Context, feas []*candState) error {
	sortByAxis(feas)
	if s.spec.skipTriage() {
		s.st.Plausible = len(feas)
		return s.halve(ctx, "exact", feas)
	}
	s.progress(Progress{Phase: "triage", Done: 0, Total: len(feas)})
	if err := s.estimate(ctx, feas); err != nil {
		return err
	}
	plausible := s.triagePrune(feas)
	s.st.TriagePruned = len(feas) - len(plausible)
	s.st.Plausible = len(plausible)
	s.progress(Progress{Phase: "triage", Done: len(plausible), Total: len(feas)})
	return s.halve(ctx, "exact", plausible)
}

// runRandom samples the feasible space with the spec's seed, confirms
// the sample adaptively, then refines by axis-neighbor local search
// around the provisional frontier.
func (s *searchRun) runRandom(ctx context.Context, feas []*candState) error {
	sortByAxis(feas)
	rng := rand.New(rand.NewSource(s.spec.Seed))
	k := s.spec.SampleSize
	if k <= 0 {
		k = 256
	}
	if k > len(feas) {
		k = len(feas)
	}
	perm := rng.Perm(len(feas))[:k]
	sort.Ints(perm)
	sample := make([]*candState, k)
	for i, idx := range perm {
		sample[i] = feas[idx]
	}
	s.st.Sampled = k

	plausible := sample
	if s.spec.skipTriage() {
		s.st.Plausible = k
	} else {
		s.progress(Progress{Phase: "triage", Done: 0, Total: k})
		if err := s.estimate(ctx, sample); err != nil {
			return err
		}
		plausible = s.triagePrune(sample)
		s.st.TriagePruned = len(sample) - len(plausible)
		s.st.Plausible = len(plausible)
	}
	if err := s.halve(ctx, "exact", plausible); err != nil {
		return err
	}

	// Local search: walk the axis neighbors of the provisional frontier.
	ppcs, sizes, err := s.spec.Space.Axes()
	if err != nil {
		return err
	}
	byKey := make(map[Candidate]*candState, len(feas))
	for _, c := range feas {
		byKey[c.Candidate] = c
	}
	rounds := s.spec.LocalRounds
	if rounds <= 0 {
		rounds = 3
	}
	for round := 1; round <= rounds && s.budgetLeft() > 0; round++ {
		fresh := s.neighbors(byKey, ppcs, sizes)
		if len(fresh) == 0 {
			break
		}
		if !s.spec.skipTriage() {
			var toEst []*candState
			for _, c := range fresh {
				if !c.estimated {
					toEst = append(toEst, c)
				}
			}
			if err := s.estimate(ctx, toEst); err != nil {
				return err
			}
		}
		var viable []*candState
		for _, c := range fresh {
			if !s.dominatedByExact(c) {
				viable = append(viable, c)
			}
		}
		s.progress(Progress{Phase: "local", Round: round, Done: 0, Total: len(viable)})
		if len(viable) == 0 {
			break
		}
		if b := s.budgetLeft(); len(viable) > b {
			s.rank(viable)
			viable = viable[:b]
		} else {
			sortByAxis(viable)
		}
		if err := s.exactBatch(ctx, "local", round, viable, 0); err != nil {
			return err
		}
	}
	return nil
}

// neighbors returns the unsimulated feasible axis neighbors of the
// current exact frontier, in axis order.
func (s *searchRun) neighbors(byKey map[Candidate]*candState, ppcs, sizes []int) []*candState {
	front := s.frontierStates()
	seen := map[Candidate]bool{}
	var out []*candState
	add := func(c Candidate) {
		if cs, ok := byKey[c]; ok && !cs.simmed && !seen[c] {
			seen[c] = true
			out = append(out, cs)
		}
	}
	ppcIdx := indexOf(ppcs)
	sizeIdx := indexOf(sizes)
	for _, f := range front {
		pi, si := ppcIdx[f.PPC], sizeIdx[f.SCCBytes]
		for _, d := range []int{-1, 1} {
			if j := pi + d; j >= 0 && j < len(ppcs) {
				add(Candidate{PPC: ppcs[j], SCCBytes: f.SCCBytes})
			}
			if j := si + d; j >= 0 && j < len(sizes) {
				add(Candidate{PPC: f.PPC, SCCBytes: sizes[j]})
			}
		}
	}
	sortByAxis(out)
	return out
}

func indexOf(v []int) map[int]int {
	m := make(map[int]int, len(v))
	for i, x := range v {
		m[x] = i
	}
	return m
}

// halve runs successive halving: rank by analytic promise, simulate
// the best half of what remains each round (bounded by the budget),
// and abandon candidates an exact result now provably dominates.
func (s *searchRun) halve(ctx context.Context, phase string, plausible []*candState) error {
	remaining := append([]*candState(nil), plausible...)
	s.rank(remaining)
	round := 0
	for len(remaining) > 0 {
		b := s.budgetLeft()
		if b == 0 {
			break
		}
		round++
		k := (len(remaining) + 1) / 2
		if k > b {
			k = b
		}
		batch := remaining[:k]
		remaining = remaining[k:]
		if err := s.exactBatch(ctx, phase, round, batch, len(remaining)); err != nil {
			return err
		}
		kept := remaining[:0]
		for _, c := range remaining {
			if s.dominatedByExact(c) {
				s.st.Abandoned++
			} else {
				kept = append(kept, c)
			}
		}
		remaining = kept
	}
	return nil
}

// rank orders candidates by analytic promise: Pareto layer over the
// estimated objective vectors, then the first objective, then the
// axes — fully deterministic.
func (s *searchRun) rank(cands []*candState) {
	mids := make([][]float64, len(cands))
	for i, c := range cands {
		mids[i] = s.midVec(c)
	}
	layer := make([]int, len(cands))
	remaining := make([]int, len(cands))
	for i := range remaining {
		remaining[i] = i
	}
	for l := 0; len(remaining) > 0; l++ {
		sub := make([][]float64, len(remaining))
		for i, idx := range remaining {
			sub[i] = mids[idx]
		}
		front := ParetoIndices(sub)
		inFront := make(map[int]bool, len(front))
		for _, i := range front {
			layer[remaining[i]] = l
			inFront[i] = true
		}
		next := remaining[:0]
		for i, idx := range remaining {
			if !inFront[i] {
				next = append(next, idx)
			}
		}
		remaining = next
	}
	idx := make(map[*candState]int, len(cands))
	for i, c := range cands {
		idx[c] = i
	}
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		la, lb := layer[idx[ca]], layer[idx[cb]]
		if la != lb {
			return la < lb
		}
		ma, mb := mids[idx[ca]], mids[idx[cb]]
		if ma[0] != mb[0] {
			return ma[0] < mb[0]
		}
		if ca.PPC != cb.PPC {
			return ca.PPC < cb.PPC
		}
		return ca.SCCBytes < cb.SCCBytes
	})
}

// triagePrune keeps the candidates that could still be on the exact
// frontier when every analytic estimate may be off by the margin, and
// that could still satisfy the cycle constraints.
func (s *searchRun) triagePrune(cands []*candState) []*candState {
	var kept []*candState
	for _, c := range cands {
		if s.cycleConstraintsPlausible(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return kept
	}
	lo := make([][]float64, len(kept))
	hi := make([][]float64, len(kept))
	for i, c := range kept {
		lo[i], hi[i] = s.boundVecs(c)
	}
	var out []*candState
	for i, c := range kept {
		dominated := false
		for j := range kept {
			if i != j && certainlyDominates(hi[j], lo[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// cycleConstraintsPlausible applies cycle constraints with the margin:
// a candidate is kept unless even the optimistic bound violates them.
func (s *searchRun) cycleConstraintsPlausible(c *candState) bool {
	for _, con := range s.spec.Constraints {
		if con.Metric != "cycles" {
			continue
		}
		lo := float64(c.est) * (1 - s.margin)
		hi := float64(c.est) * (1 + s.margin)
		if con.Max != 0 && lo > con.Max {
			return false
		}
		if con.Min != 0 && hi < con.Min {
			return false
		}
	}
	return true
}

// exactConstraintsOK re-checks every constraint against a simulated
// candidate's exact values.
func (s *searchRun) exactConstraintsOK(c *candState) bool {
	for _, con := range s.spec.Constraints {
		var v float64
		switch con.Metric {
		case "cycles":
			v = float64(c.exact)
		case "cost_perf":
			v = costPerf(float64(c.exact)*c.factor, c.systemMM2)
		default:
			continue // static metrics already held
		}
		if !within(v, con) {
			return false
		}
	}
	return true
}

// dominatedByExact reports whether an exact result certainly dominates
// the (estimated, margin-widened) candidate. Unestimated candidates
// are never pruned — without an estimate there is no sound bound.
func (s *searchRun) dominatedByExact(c *candState) bool {
	if !c.simmed && !c.estimated {
		return false
	}
	lo, _ := s.boundVecs(c)
	for _, q := range s.simmed {
		qv := s.midVec(q)
		if certainlyDominates(qv, lo) {
			return true
		}
	}
	return false
}

// midVec is the candidate's best-known objective vector (exact when
// simulated).
func (s *searchRun) midVec(c *candState) []float64 {
	return s.objVec(c.adj(), c)
}

// boundVecs returns the margin-widened [lo, hi] objective vectors of
// an estimated candidate. Exact candidates collapse to a point.
func (s *searchRun) boundVecs(c *candState) (lo, hi []float64) {
	if c.simmed {
		v := s.midVec(c)
		return v, v
	}
	adjLo := float64(c.est) * (1 - s.margin) * c.factor
	adjHi := float64(c.est) * (1 + s.margin) * c.factor
	return s.objVec(adjLo, c), s.objVec(adjHi, c)
}

// objVec builds the minimization vector for a candidate at the given
// adjusted cycle count.
func (s *searchRun) objVec(adj float64, c *candState) []float64 {
	v := make([]float64, len(s.objs))
	for k, o := range s.objs {
		switch o {
		case ObjectiveCycles:
			v[k] = adj
		case ObjectiveArea:
			v[k] = c.systemMM2
		case ObjectiveCostPerf:
			v[k] = -costPerf(adj, c.systemMM2)
		}
	}
	return v
}

// certainlyDominates reports whether q's worst case dominates p's best
// case — the sound pruning test under interval-valued objectives.
func certainlyDominates(qHi, pLo []float64) bool {
	strict := false
	for k := range qHi {
		if qHi[k] > pLo[k] {
			return false
		}
		if qHi[k] < pLo[k] {
			strict = true
		}
	}
	return strict
}

// costPerf is the costperf package's formula: performance (1e9 /
// adjusted cycles) per 1000 mm² of system silicon.
func costPerf(adj, systemMM2 float64) float64 {
	if adj <= 0 || systemMM2 <= 0 {
		return 0
	}
	return (1e9 / adj) / (systemMM2 / 1000)
}

// frontierStates extracts the Pareto frontier over the simulated
// candidates that satisfy every constraint exactly.
func (s *searchRun) frontierStates() []*candState {
	var ok []*candState
	for _, c := range s.simmed {
		if s.exactConstraintsOK(c) {
			ok = append(ok, c)
		}
	}
	if len(ok) == 0 {
		return nil
	}
	vecs := make([][]float64, len(ok))
	for i, c := range ok {
		vecs[i] = s.midVec(c)
	}
	idxs := ParetoIndices(vecs)
	out := make([]*candState, len(idxs))
	for i, idx := range idxs {
		out[i] = ok[idx]
	}
	return out
}

// assemble builds the Result from the run state.
func (s *searchRun) assemble() *Result {
	res := &Result{Workload: s.r.Workload, Stats: *s.st}
	front := s.frontierStates()
	sort.Slice(front, func(a, b int) bool {
		if front[a].systemMM2 != front[b].systemMM2 {
			return front[a].systemMM2 < front[b].systemMM2
		}
		return front[a].adj() < front[b].adj()
	})
	for _, c := range front {
		res.Frontier = append(res.Frontier, s.point(c))
	}
	for i := range res.Frontier {
		p := &res.Frontier[i]
		if res.Best == nil || p.CostPerf > res.Best.CostPerf {
			res.Best = p
		}
	}
	ev := append([]*candState(nil), s.simmed...)
	sortByAxis(ev)
	for _, c := range ev {
		res.Evaluated = append(res.Evaluated, s.point(c))
	}
	return res
}

// point prices one simulated candidate as a PointResult.
func (s *searchRun) point(c *candState) PointResult {
	adj := float64(c.exact) * c.factor
	return PointResult{
		Candidate:   c.Candidate,
		Clusters:    s.clusters,
		LoadLatency: c.d.LoadLatency,
		EstCycles:   c.est,
		Cycles:      c.exact,
		AdjCycles:   adj,
		ClusterMM2:  c.clusterMM2,
		SystemMM2:   c.systemMM2,
		Perf:        1e9 / adj,
		CostPerf:    costPerf(adj, c.systemMM2),
	}
}

// publish exports the stage counters when a registry is attached.
func (r *Runner) publish(st *Stats) {
	m := r.Metrics
	if m == nil {
		return
	}
	m.Counter("search.runs").Inc()
	m.Counter("search.space_points").Add(uint64(st.SpaceSize))
	m.Counter("search.static_pruned").Add(uint64(st.StaticPruned))
	m.Counter("search.triage_pruned").Add(uint64(st.TriagePruned))
	m.Counter("search.analytic_evals").Add(uint64(st.AnalyticEvals))
	m.Counter("search.exact_sims").Add(uint64(st.ExactSims))
	m.Counter("search.abandoned").Add(uint64(st.Abandoned))
}

// sortByAxis orders candidates (ppc, size) ascending — the
// deterministic tie-free order every stage uses.
func sortByAxis(cands []*candState) {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].PPC != cands[b].PPC {
			return cands[a].PPC < cands[b].PPC
		}
		return cands[a].SCCBytes < cands[b].SCCBytes
	})
}
