package search

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sccsim/internal/sysmodel"
)

// fakeEval is a deterministic synthetic workload: exact cycles follow a
// smooth cost surface over (ppc, size), the analytic estimate carries a
// bounded deterministic relative error, and both count their calls.
type fakeEval struct {
	estCalls, exactCalls int
	estPoints, simPoints int
	relErr               float64 // estimate error amplitude
}

func (f *fakeEval) cycles(c Candidate) uint64 {
	// More processors help, bigger caches help, with diminishing
	// returns; a hash term keeps the surface from being too smooth.
	v := 4e7/float64(c.PPC) + 6e10/float64(c.SCCBytes) + 3e6*float64((c.PPC*31+c.SCCBytes/4096)%7)
	return uint64(v)
}

func (f *fakeEval) Estimate(_ context.Context, cands []Candidate) ([]uint64, error) {
	f.estCalls++
	f.estPoints += len(cands)
	out := make([]uint64, len(cands))
	for i, c := range cands {
		// Deterministic signed error within ±relErr.
		e := f.relErr * math.Sin(float64(c.PPC*1007+c.SCCBytes/sysmodel.LineSize))
		out[i] = uint64(float64(f.cycles(c)) * (1 + e))
	}
	return out, nil
}

func (f *fakeEval) Exact(_ context.Context, cands []Candidate) ([]uint64, error) {
	f.exactCalls++
	f.simPoints += len(cands)
	out := make([]uint64, len(cands))
	for i, c := range cands {
		out[i] = f.cycles(c)
	}
	return out, nil
}

func keysOf(pts []PointResult) []Candidate {
	out := make([]Candidate, len(pts))
	for i, p := range pts {
		out[i] = p.Candidate
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].PPC != out[b].PPC {
			return out[a].PPC < out[b].PPC
		}
		return out[a].SCCBytes < out[b].SCCBytes
	})
	return out
}

func runnerFor(ev Evaluator) *Runner {
	return &Runner{Eval: ev, Workload: "synthetic", Clusters: 4}
}

// TestEnumerateDefaults: the zero space is the paper grid in (ppc,
// size) order.
func TestEnumerateDefaults(t *testing.T) {
	cands, err := Space{}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	want := len(sysmodel.ProcsPerClusterSweep) * len(sysmodel.SCCSizes)
	if len(cands) != want {
		t.Fatalf("default space has %d points, want %d", len(cands), want)
	}
	if cands[0] != (Candidate{PPC: 1, SCCBytes: sysmodel.SCCSizes[0]}) {
		t.Errorf("first candidate %+v", cands[0])
	}
	last := cands[len(cands)-1]
	if last.PPC != 8 || last.SCCBytes != sysmodel.SCCSizes[len(sysmodel.SCCSizes)-1] {
		t.Errorf("last candidate %+v", last)
	}
}

// TestSpaceRange: generated ranges are inclusive, deduplicated and
// line-aligned, and bad shapes are rejected.
func TestSpaceRange(t *testing.T) {
	sp := Space{ProcsPerCluster: []int{2, 1, 2}, SCCBytesMin: 4096, SCCBytesMax: 8192, SCCBytesStep: 2048}
	cands, err := sp.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	want := []Candidate{
		{1, 4096}, {1, 6144}, {1, 8192},
		{2, 4096}, {2, 6144}, {2, 8192},
	}
	if !reflect.DeepEqual(cands, want) {
		t.Errorf("enumerated %v, want %v", cands, want)
	}
	bad := []Space{
		{SCCBytesMin: 100, SCCBytesMax: 4096, SCCBytesStep: 16},   // unaligned min
		{SCCBytesMin: 4096, SCCBytesMax: 8192, SCCBytesStep: 100}, // unaligned step
		{SCCBytesMin: 8192, SCCBytesMax: 4096, SCCBytesStep: 16},  // max < min
		{SCCBytes: []int{24}},                                     // unaligned explicit
		{ProcsPerCluster: []int{0}},                               // bad ppc
		{SCCBytesMin: 16, SCCBytesMax: 1 << 27, SCCBytesStep: 16}, // over the cap
		{SCCBytesMin: 16, SCCBytesMax: math.MaxInt, SCCBytesStep: 16},
	}
	for i, sp := range bad {
		if _, err := sp.Enumerate(); err == nil {
			t.Errorf("bad space %d accepted", i)
		}
	}
	// A range reaching the top of int ends at its last size instead of
	// overflowing past max and looping.
	top := Space{SCCBytesMin: 16, SCCBytesMax: math.MaxInt, SCCBytesStep: 1 << 61}
	if _, sizes, err := top.Axes(); err != nil || len(sizes) != 4 || sizes[3] != 16+3<<61 {
		t.Errorf("top-of-int range: sizes %v, err %v; want 4 sizes ending at 16+3<<61", sizes, err)
	}
}

// TestSpecValidate rejects unknown names and malformed bounds.
func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	bad := []Spec{
		{Objectives: []Objective{"latency"}},
		{Objectives: []Objective{ObjectiveCycles, ObjectiveCycles}},
		{Strategy: "genetic"},
		{Constraints: []Constraint{{Metric: "watts", Max: 1}}},
		{Constraints: []Constraint{{Metric: "cycles", Min: 5, Max: 2}}},
		{Budget: -1},
		{Margin: 1.5},
		{SampleSize: -2},
		{LocalRounds: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// bruteForcePareto is the O(n²) reference for ParetoIndices.
func bruteForcePareto(pts [][]float64) []int {
	var out []int
	for i, p := range pts {
		dom := false
		for j, q := range pts {
			if i != j && dominates(q, p) {
				dom = true
				break
			}
		}
		if !dom {
			out = append(out, i)
		}
	}
	return out
}

// TestParetoIndices2DMatchesBruteForce: the sort-and-sweep fast path
// must agree with the definitional check, including duplicated points
// and axis ties.
func TestParetoIndices2DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			// A small value universe forces ties and duplicates.
			pts[i] = []float64{float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		got := ParetoIndices(pts)
		want := bruteForcePareto(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fast path %v, brute force %v for %v", trial, got, want, pts)
		}
	}
}

// TestParetoIndices3D exercises the generic path.
func TestParetoIndices3D(t *testing.T) {
	pts := [][]float64{
		{1, 1, 1},
		{2, 2, 2}, // dominated
		{1, 2, 0},
		{1, 1, 1}, // exact duplicate of 0: both stay
	}
	got := ParetoIndices(pts)
	want := []int{0, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestAdaptiveMatchesExhaustive is the package-level form of the
// headline property: with estimates whose relative error stays inside
// the margin, the adaptive pipeline's frontier equals the exhaustive
// one while simulating strictly fewer points.
func TestAdaptiveMatchesExhaustive(t *testing.T) {
	spec := Spec{Margin: 0.2}

	exFake := &fakeEval{relErr: 0.1}
	ex, err := runnerFor(exFake).Run(context.Background(), Spec{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	adFake := &fakeEval{relErr: 0.1}
	spec.Strategy = StrategyAdaptive
	ad, err := runnerFor(adFake).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(keysOf(ad.Frontier), keysOf(ex.Frontier)) {
		t.Errorf("adaptive frontier %v != exhaustive %v", keysOf(ad.Frontier), keysOf(ex.Frontier))
	}
	if ad.Stats.ExactSims >= ex.Stats.ExactSims {
		t.Errorf("adaptive simulated %d points, exhaustive %d — no savings",
			ad.Stats.ExactSims, ex.Stats.ExactSims)
	}
	if ad.Stats.ExactSims != ad.Stats.Plausible-countAbandoned(ad.Stats) {
		t.Errorf("exact sims %d, plausible %d, abandoned %d — accounting off",
			ad.Stats.ExactSims, ad.Stats.Plausible, ad.Stats.Abandoned)
	}
	// Frontier cycles must be the exact backend's, not estimates.
	for _, p := range ad.Frontier {
		if p.Cycles != adFake.cycles(p.Candidate) {
			t.Errorf("frontier point %+v carries cycles %d, exact is %d",
				p.Candidate, p.Cycles, adFake.cycles(p.Candidate))
		}
	}
}

func countAbandoned(st Stats) int { return st.Abandoned }

// TestBudgetCapsExactSims: the budget is a hard ceiling and the search
// still returns a (possibly partial) frontier.
func TestBudgetCapsExactSims(t *testing.T) {
	f := &fakeEval{relErr: 0.1}
	res, err := runnerFor(f).Run(context.Background(), Spec{Strategy: StrategyAdaptive, Budget: 5, Margin: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExactSims > 5 || f.simPoints > 5 {
		t.Errorf("budget 5 exceeded: stats %d, evaluator saw %d", res.Stats.ExactSims, f.simPoints)
	}
	if len(res.Frontier) == 0 {
		t.Error("budgeted search returned an empty frontier")
	}
	for _, p := range res.Frontier {
		if p.Cycles == 0 {
			t.Errorf("frontier point %+v has no exact cycle count", p.Candidate)
		}
	}
}

// TestRandomSeedDeterminism: the random strategy is a pure function of
// the spec (the evaluator being deterministic).
func TestRandomSeedDeterminism(t *testing.T) {
	spec := Spec{
		Strategy: StrategyRandom, Seed: 42, Budget: 30, SampleSize: 40, Margin: 0.2,
		Space: Space{SCCBytesMin: 4096, SCCBytesMax: 524288, SCCBytesStep: 4096},
	}
	a, err := runnerFor(&fakeEval{relErr: 0.1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runnerFor(&fakeEval{relErr: 0.1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with the same seed differ")
	}
	if a.Stats.Sampled != 40 {
		t.Errorf("sampled %d, want 40", a.Stats.Sampled)
	}
	if a.Stats.ExactSims > 30 {
		t.Errorf("budget 30 exceeded: %d", a.Stats.ExactSims)
	}
}

// TestConstraints: static bounds prune the space, exact bounds gate the
// frontier.
func TestConstraints(t *testing.T) {
	f := &fakeEval{relErr: 0.05}
	res, err := runnerFor(f).Run(context.Background(), Spec{
		Strategy: StrategyAdaptive, Margin: 0.2,
		Constraints: []Constraint{
			{Metric: "scc_bytes", Min: 32 * 1024},
			{Metric: "procs_per_cluster", Max: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Evaluated {
		if p.SCCBytes < 32*1024 || p.PPC > 4 {
			t.Errorf("constrained-out point %+v was simulated", p.Candidate)
		}
	}
	// A cycles ceiling below every point empties the frontier without
	// erroring.
	res, err = runnerFor(&fakeEval{relErr: 0.05}).Run(context.Background(), Spec{
		Strategy: StrategyAdaptive, Margin: 0.2,
		Constraints: []Constraint{{Metric: "cycles", Max: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 0 {
		t.Errorf("impossible cycle bound still yielded %d frontier points", len(res.Frontier))
	}
}

// TestCostPerfObjective: a single maximized objective degenerates to
// the best cost/performance point.
func TestCostPerfObjective(t *testing.T) {
	f := &fakeEval{relErr: 0.05}
	res, err := runnerFor(f).Run(context.Background(), Spec{
		Strategy:   StrategyAdaptive,
		Margin:     0.2,
		Objectives: []Objective{ObjectiveCostPerf},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 1 {
		t.Fatalf("single-objective frontier has %d points, want 1", len(res.Frontier))
	}
	// The winner must beat every exhaustively simulated point.
	ex, err := runnerFor(&fakeEval{}).Run(context.Background(), Spec{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Frontier[0]
	for _, p := range ex.Evaluated {
		if p.CostPerf > best.CostPerf {
			t.Errorf("point %+v has cost/perf %.3f above the search winner's %.3f",
				p.Candidate, p.CostPerf, best.CostPerf)
		}
	}
}
