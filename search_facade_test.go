package sccsim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sccsim/internal/obs"
)

// searchKey identifies a design point across the search and sweep
// result shapes.
type searchKey struct {
	PPC, SCC int
	Cycles   uint64
}

// TestSearchRecoversExhaustiveFrontier is the headline property and
// the PR's acceptance criterion, asserted for every workload on the
// paper grid at quick scale:
//
//  1. the adaptive search's cycles-vs-area frontier equals the
//     exhaustive exact-backend frontier (SweepCtx + Frontier +
//     ParetoFront — the shared extraction), point for point including
//     the exact cycle counts, while simulating strictly fewer points
//     than the feasible space;
//  2. with the cost/performance objective — the paper's closing
//     question — the search finds the exhaustive sweep's best design
//     with at least 60% fewer exact simulations than the full-grid
//     sweep.
func TestSearchRecoversExhaustiveFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload searches")
	}
	ctx := context.Background()
	for _, w := range AllWorkloads {
		w := w
		t.Run(string(w), func(t *testing.T) {
			grid, err := SweepCtx(ctx, w, WithScale(QuickScale()))
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			// The searches would read the sweep's cycles; dropping them
			// makes the searches simulate what they confirm.
			ResetTraceCache()
			exhaustive := ParetoFront(Frontier(grid))
			want := make([]searchKey, 0, len(exhaustive))
			for _, p := range exhaustive {
				pt := grid.At(p.SCCBytes, p.ProcsPerCluster)
				want = append(want, searchKey{p.ProcsPerCluster, p.SCCBytes, pt.Result.Cycles})
			}

			res, err := SearchCtx(ctx, w, SearchSpec{}, WithScale(QuickScale()))
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			got := make([]searchKey, 0, len(res.Frontier))
			for _, p := range res.Frontier {
				got = append(got, searchKey{p.PPC, p.SCCBytes, p.Cycles})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("adaptive frontier %v\nexhaustive frontier %v", got, want)
			}
			feasible := res.Stats.SpaceSize - res.Stats.StaticPruned
			if res.Stats.ExactSims >= feasible {
				t.Errorf("adaptive simulated %d of %d feasible points — no savings",
					res.Stats.ExactSims, feasible)
			}

			cp, err := SearchCtx(ctx, w,
				SearchSpec{Objectives: []SearchObjective{SearchObjectiveCostPerf}},
				WithScale(QuickScale()))
			if err != nil {
				t.Fatalf("cost/perf search: %v", err)
			}
			best := BestDesign(Frontier(grid))
			if best == nil || cp.Best == nil {
				t.Fatal("no best design")
			}
			if cp.Best.PPC != best.ProcsPerCluster || cp.Best.SCCBytes != best.SCCBytes {
				t.Errorf("cost/perf best %d/%d, exhaustive best %d/%d",
					cp.Best.PPC, cp.Best.SCCBytes, best.ProcsPerCluster, best.SCCBytes)
			}
			// The acceptance bound: >= 60% fewer exact simulations than
			// the full-grid exhaustive sweep.
			if 5*cp.Stats.ExactSims > 2*cp.Stats.SpaceSize {
				t.Errorf("cost/perf search ran %d exact sims of a %d-point grid; want <= 40%%",
					cp.Stats.ExactSims, cp.Stats.SpaceSize)
			}
		})
	}
}

// TestSearchLargeSpaceOutcome pins the adaptive search over a
// ~16k-point space exactly: Barnes-Hut at quick scale, SCC sizes
// 4K..512K in 128-byte steps crossed with the paper's processors per
// cluster, budget 64, seed 1: the stage counts and the exact-confirmed
// frontier, cycle counts included. Static pruning and the analytic
// estimates decide which 64 points reach the simulator.
func TestSearchLargeSpaceOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact simulations")
	}
	// Cycles an earlier test recorded would be read, not simulated.
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	spec := SearchSpec{
		Space:    SearchSpace{SCCBytesMin: 4 * 1024, SCCBytesMax: 512 * 1024, SCCBytesStep: 128},
		Strategy: SearchAdaptive,
		Budget:   64,
		Seed:     1,
	}
	res, err := SearchCtx(context.Background(), BarnesHut, spec, WithScale(QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	type counts struct{ space, static, triage, analytic, exact, rounds int }
	got := counts{st.SpaceSize, st.StaticPruned, st.TriagePruned, st.AnalyticEvals, st.ExactSims, st.Rounds}
	if want := (counts{16260, 14724, 0, 1536, 64, 1}); got != want {
		t.Errorf("stage counts %+v, want %+v", got, want)
	}
	want := []searchKey{
		{1, 143104, 446407},
		{2, 28672, 367972}, {2, 32768, 325087}, {2, 45056, 269458},
		{4, 24576, 230091}, {4, 32768, 176155}, {4, 49152, 141052}, {4, 65536, 133139},
		{8, 32768, 99307}, {8, 49152, 78136}, {8, 65536, 73749},
	}
	frontier := make([]searchKey, 0, len(res.Frontier))
	for _, p := range res.Frontier {
		frontier = append(frontier, searchKey{p.PPC, p.SCCBytes, p.Cycles})
	}
	if !reflect.DeepEqual(frontier, want) {
		t.Errorf("frontier %v\nwant     %v", frontier, want)
	}
}

// TestSearchReusesEarlierSimulations: a search confirms from the
// exact-cycles table what an earlier search in the process simulated.
// After a reset, the cycles-vs-area search and then the
// cost/performance search on QuickScale MP3D: the second simulates
// only configurations the first did not, both frontiers equal the same
// searches run cold, and under WithVerify the second simulates every
// confirmation again.
func TestSearchReusesEarlierSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact simulations")
	}
	t.Cleanup(ResetTraceCache)
	ctx := context.Background()
	specs := []SearchSpec{{Seed: 1}, {Objectives: []SearchObjective{SearchObjectiveCostPerf}, Seed: 1}}
	// run returns the search's frontier as JSON, its confirmation count
	// and the configurations its Progress events named.
	run := func(spec SearchSpec, opts ...Opt) (string, int, []Config) {
		t.Helper()
		var simulated []Config
		opts = append(opts, WithScale(QuickScale()),
			WithProgress(func(p Progress) { simulated = append(simulated, p.Config) }))
		res, err := SearchCtx(ctx, MP3D, spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Frontier)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), res.Stats.ExactSims, simulated
	}
	var cold [2]string
	for i, spec := range specs {
		ResetTraceCache()
		cold[i], _, _ = run(spec)
	}

	ResetTraceCache()
	first, _, simulated := run(specs[0])
	second, confirmed, again := run(specs[1])
	if first != cold[0] || second != cold[1] {
		t.Errorf("frontiers after reuse differ from cold runs:\n%s\n%s\ncold:\n%s\n%s", first, second, cold[0], cold[1])
	}
	earlier := map[Config]bool{}
	for _, cfg := range simulated {
		earlier[cfg] = true
	}
	for _, cfg := range again {
		if earlier[cfg] {
			t.Errorf("the second search simulated %v, which the first already had", cfg)
		}
	}
	t.Logf("the second search simulated %d of its %d confirmations", len(again), confirmed)
	if len(again) >= confirmed {
		t.Errorf("the second search simulated %d of its %d confirmations: none reused", len(again), confirmed)
	}

	ResetTraceCache()
	run(specs[0])
	if _, confirmed, verified := run(specs[1], WithVerify()); len(verified) != confirmed {
		t.Errorf("a verified search simulated %d of its %d confirmations, want all", len(verified), confirmed)
	}
}

// TestSearchTriageReportsCacheMetrics: the analytic triage resolves
// every trace and profile of a cold search, through the engine's
// caches, and the registry reports those lookups as a sweep's.
func TestSearchTriageReportsCacheMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact simulations")
	}
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	reg := NewMetrics()
	if _, err := SearchCtx(context.Background(), MP3D, SearchSpec{}, WithScale(QuickScale()), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"explorer.trace_cache_misses", "explorer.trace_generated"} {
		if got := reg.Counter(name).Value(); got < 1 {
			t.Errorf("%s = %d after a cold search, want >= 1", name, got)
		}
	}
	if got := reg.Gauge("explorer.profile_cache_bytes").Value(); got <= 0 {
		t.Errorf("explorer.profile_cache_bytes = %d after a cold search, want the cached profiles' bytes", got)
	}
}

// TestSearchSeedDeterminism: a fixed seed makes the random strategy's
// result — and its manifest — identical across runs and parallelism
// levels.
func TestSearchSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact simulations")
	}
	ctx := context.Background()
	spec := SearchSpec{
		Strategy:   SearchRandom,
		Seed:       7,
		SampleSize: 10,
		Budget:     12,
	}
	run := func(parallel int) (*SearchResult, *obs.Manifest) {
		var buf bytes.Buffer
		res, err := SearchCtx(ctx, MP3D, spec,
			WithScale(QuickScale()), WithParallelism(parallel), WithManifest(&buf))
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatalf("parallel=%d manifest: %v", parallel, err)
		}
		return res, &m
	}
	res1, m1 := run(1)
	res8, m8 := run(8)
	if !reflect.DeepEqual(res1, res8) {
		t.Errorf("results differ across parallelism:\n p=1: %+v\n p=8: %+v", res1, res8)
	}
	// The manifests must agree on everything the run determines;
	// CreatedAt (wall clock) and Parallelism (the knob under test) are
	// the only legitimate differences.
	m1.CreatedAt, m8.CreatedAt = "", ""
	m1.Parallelism, m8.Parallelism = 0, 0
	if !reflect.DeepEqual(m1, m8) {
		t.Errorf("manifests differ across parallelism:\n p=1: %+v\n p=8: %+v", m1, m8)
	}

	if m1.Backend != "search" {
		t.Errorf("manifest backend %q, want %q", m1.Backend, "search")
	}
	if m1.Search == nil {
		t.Fatal("manifest has no search stamp")
	}
	if m1.Search.Strategy != string(SearchRandom) || m1.Search.Seed != 7 ||
		m1.Search.Budget != 12 || m1.Search.FrontierSize != len(res1.Frontier) {
		t.Errorf("search stamp %+v does not echo the spec/result", m1.Search)
	}
	if len(m1.Points) != len(res1.Frontier) {
		t.Errorf("manifest has %d points, frontier has %d", len(m1.Points), len(res1.Frontier))
	}
	for i, p := range res1.Frontier {
		rec := m1.Points[i]
		if rec.ProcsPerCluster != p.PPC || rec.SCCBytes != p.SCCBytes || rec.Cycles != p.Cycles {
			t.Errorf("manifest point %d = %+v, frontier point %+v", i, rec, p)
		}
		if rec.WallNanos != 0 {
			t.Errorf("manifest point %d has wall time %d; search manifests are deterministic", i, rec.WallNanos)
		}
	}
	if res1.Stats.ExactSims > 12 {
		t.Errorf("budget 12 exceeded: %d exact sims", res1.Stats.ExactSims)
	}
}

// TestSearchSpecRoundTripEveryField: a fully-populated SearchSpec
// survives JSON round-tripping — the serve layer's digest and request
// decoding depend on it.
func TestSearchSpecRoundTripEveryField(t *testing.T) {
	spec := SearchSpec{
		Space: SearchSpace{
			ProcsPerCluster: []int{2, 4},
			SCCBytes:        []int{8192, 32768},
		},
		Objectives:  []SearchObjective{SearchObjectiveCycles, SearchObjectiveArea, SearchObjectiveCostPerf},
		Constraints: []SearchConstraint{{Metric: "area_mm2", Max: 900}, {Metric: "cycles", Min: 1, Max: 1e12}},
		Strategy:    SearchAdaptive,
		Budget:      64,
		Margin:      0.25,
		Seed:        42,
		SampleSize:  128,
		LocalRounds: 2,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back SearchSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip changed the spec:\n sent %+v\n got  %+v", spec, back)
	}
	for _, key := range []string{`"space"`, `"objectives"`, `"constraints"`, `"strategy"`,
		`"budget"`, `"margin"`, `"seed"`, `"sample_size"`, `"local_rounds"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("marshalled spec lacks %s: %s", key, data)
		}
	}

	// The range form round-trips too.
	rng := SearchSpec{Space: SearchSpace{SCCBytesMin: 4096, SCCBytesMax: 65536, SCCBytesStep: 4096}}
	data, err = json.Marshal(rng)
	if err != nil {
		t.Fatal(err)
	}
	back = SearchSpec{}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rng, back) {
		t.Errorf("range spec round trip changed: sent %+v got %+v", rng, back)
	}
}

// TestSearchOptionValidation: options the batched search pipeline
// cannot honor fail fast with actionable errors, before any
// simulation.
func TestSearchOptionValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		opts    []Opt
		wantErr string
	}{
		{"analytic backend", []Opt{WithBackend(BackendAnalytic)}, "both backends"},
		{"sim options", []Opt{WithSimOptions(Options{})}, "WithSimOptions"},
		{"trace export", []Opt{WithTraceExport(&bytes.Buffer{})}, "WithTraceExport"},
		{"pinned config", []Opt{WithConfig(DefaultConfig(2, 32768))}, "WithConfig"},
		{"unknown backend", []Opt{WithBackend("fast")}, "unknown backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SearchCtx(ctx, BarnesHut, SearchSpec{}, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("SearchCtx: err %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	// A bad spec fails before any backend work too.
	_, err := SearchCtx(ctx, BarnesHut, SearchSpec{Space: SearchSpace{SCCBytes: []int{100}}})
	if err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Errorf("bad space: err %v, want line-alignment error", err)
	}
}

// TestSearchProgressMeter: the live progress hook sees the triage
// stage and monotone exact-simulation counts.
func TestSearchProgressMeter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact simulations")
	}
	var events []SearchProgress
	_, err := SearchCtx(context.Background(), MP3D, SearchSpec{},
		WithScale(QuickScale()),
		WithSearchProgress(func(p SearchProgress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	phases := map[string]bool{}
	last := 0
	for _, e := range events {
		phases[e.Phase] = true
		if e.ExactSims < last {
			t.Errorf("exact sim count went backwards: %v", events)
		}
		last = e.ExactSims
	}
	if !phases["triage"] || !phases["exact"] {
		t.Errorf("progress phases %v, want triage and exact", phases)
	}
}
