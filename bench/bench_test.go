package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"sccsim"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {10, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank(nil) = %g, want 0", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p99 needs 1000 samples, p90 needs 100.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is how the benchmark's spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{2, 4, 8, 16, 32}, [3]float64{3, 8, 24}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// An open loop charges each request's latency from when it was due, so
// requests queued behind a slow one count the wait. Five requests due
// 5 ms apart against a handler that serves one at a time in 40 ms: the
// generator stays on schedule, but the last request's latency includes
// the four services ahead of it.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
	}))
	defer srv.Close()
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond}
	out := openLoop(context.Background(), due, func(int) (time.Time, error) {
		resp, err := srv.Client().Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return time.Now(), err
	})
	var worst time.Duration
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.late > 20*time.Millisecond {
			t.Errorf("request %d sent %v late; the generator must not wait for earlier requests", i, o.late)
		}
		worst = max(worst, o.latency)
	}
	// The last one to be served waited for four services and its own,
	// minus at most 20 ms of head start from its due time.
	if min := 5*service - 20*time.Millisecond; worst < min {
		t.Errorf("worst latency %v, want at least %v: latency must be charged from the due time", worst, min)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "explorer.sweep", id: 0, parent: -1, start: 0, end: 100 * ms},
		// Two overlapping children count once: [10, 50].
		{name: "sim.point", id: 1, parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "sim.point", id: 2, parent: 0, start: 20 * ms, end: 50 * ms},
		// A child running past its parent counts only inside it: [90, 100].
		{name: "sim.point", id: 3, parent: 0, start: 90 * ms, end: 120 * ms},
		// A grandchild is its own parent's business, not the sweep's.
		{name: "trace.store_load", id: 4, parent: 2, start: 20 * ms, end: 25 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 25 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i, self[i], want[i])
		}
	}
	layers := map[string]time.Duration{}
	for _, lt := range layerTimes(spans) {
		layers[lt.layer] = lt.self
	}
	if layers["sim"] != 75*ms || layers["explorer"] != 50*ms || layers["trace"] != 5*ms {
		t.Errorf("layer self times %v, want sim 75ms, explorer 50ms, trace 5ms", layers)
	}
}

// Spans sharing a track must nest or not overlap.
func TestPackTracksNests(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{start: 0, end: 100 * ms},
		{start: 10 * ms, end: 40 * ms},
		{start: 30 * ms, end: 60 * ms}, // overlaps the previous without nesting
		{start: 70 * ms, end: 90 * ms},
	}
	tracks := packTracks(spans)
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if tracks[i] != tracks[j] {
				continue
			}
			a, b := spans[i], spans[j]
			disjoint := a.end <= b.start || b.end <= a.start
			nested := (a.start <= b.start && b.end <= a.end) || (b.start <= a.start && a.end <= b.end)
			if !disjoint && !nested {
				t.Errorf("spans %d and %d share track %d but overlap without nesting", i, j, tracks[i])
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", base, "no change"},
		{"faster", scale(0.8), "improved"},
		{"slightly slower", scale(1.05), "no change"},
		{"slower", scale(1.2), "regressed"},
	} {
		if got := compareValues(base, c.b, "lower", 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 60, 140, 100, 90, 110, 70}
	if got := compareValues(noisy, scale(1.3), "lower", 0.1).verdict; got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

// The metrics and workloads the code reports are the ones
// BENCHMARK.json declares.
func TestMetricParity(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(declared), len(code))
		}
		for i := 0; i < min(len(declared), len(code)); i++ {
			d, c := declared[i], code[i]
			if d.Name != c.name || d.Unit != c.unit || d.Better != c.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the code %s [%s, %s]",
					kind, i, d.Name, d.Unit, d.Better, c.name, c.unit, c.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, w.Name, workloadNames[i])
		}
	}
}

// tinyConfig shrinks every workload far below quick scale so the smoke
// test stays fast.
func tinyConfig() config {
	tiny := sccsim.Scale{
		BarnesBodies: 32, BarnesSteps: 1, MP3DParticles: 200, MP3DSteps: 1,
		CholeskyGridW: 6, CholeskyGridH: 6, MultiprogRefs: 1000,
	}
	return config{
		scale: tiny, setups: 1, multiprogRefs: 1000, searchMax: 16 * 1024,
		serve:   serveConfig{scale: tiny, rate: 200, closedN: 40, coldSeeds: 1},
		digests: recordedDigests,
	}
}

// The digest check fails a run whose outputs differ from the recorded
// ones, that drops or adds an output, or that has no record for a seed
// whose digests must be recorded.
func TestCheckDigests(t *testing.T) {
	recorded := []byte(`{"w": {"1": {"a": "aa", "b": "bb"}, "5": {"a": "aa"}}}`)
	for _, c := range []struct {
		name    string
		seed    int64
		digests map[string]string
		fails   int
	}{
		{"match", 1, map[string]string{"a": "aa", "b": "bb"}, 0},
		{"differs", 1, map[string]string{"a": "aa", "b": "xx"}, 1},
		{"dropped", 1, map[string]string{"a": "aa"}, 1},
		{"added", 5, map[string]string{"a": "aa", "c": "cc"}, 1},
		{"unrecorded seed", 3, map[string]string{"a": "aa"}, 0},
		{"required seed missing", 2, map[string]string{"a": "aa"}, 1},
	} {
		r := &run{workload: "w", seed: c.seed, digests: c.digests}
		r.checkDigests(recorded)
		if r.failed != c.fails {
			t.Errorf("%s: %d failures, want %d: %v", c.name, r.failed, c.fails, r.problems)
		}
	}
	// The recorded file covers every workload that produces digests at
	// every seed whose digests must be recorded.
	all, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"grid-shared", "grid-widened", "analytic-sweep", "search"} {
		for _, s := range digestSeeds {
			if len(all[w][strconv.FormatInt(s, 10)]) == 0 {
				t.Errorf("%s has no digests for %s seed %d", digestPath, w, s)
			}
		}
	}
	if len(all) != 4 {
		t.Errorf("%s records %d workloads, want 4", digestPath, len(all))
	}
}

// Every workload runs and checks out. A traced run measures untraced
// and traced passes and probes every layer, so it exercises all of a
// workload's code; it must report every per-layer metric and leave the
// samples every end-to-end metric is computed from.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, name := range workloadNames {
		res, r, err := execute(context.Background(), tinyConfig(), name, 7, 100*time.Millisecond, true, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc, ok := r.inputs["scale"].(sccsim.Scale); !ok || sc.Seed != 7 {
			t.Errorf("%s: inputs made with scale %+v, want seed 7", name, r.inputs["scale"])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d %v", name, res.Correct, res.Attempted, res.Failed, r.problems)
		}
		checkMetrics(t, name, res, perLayer)
		if len(r.setups) == 0 || len(r.passes) == 0 || len(r.ops) == 0 {
			t.Errorf("%s: %d set-ups, %d passes, %d operations; end-to-end metrics need each", name, len(r.setups), len(r.passes), len(r.ops))
		}
	}
	res, _, err := execute(context.Background(), tinyConfig(), "grid-shared", 7, 100*time.Millisecond, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "grid-shared untraced", res, endToEnd)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
		}
	}
}

func checkMetrics(t *testing.T, what string, res *result, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s missing or not in %s", what, d.name, d.unit)
		}
	}
}
