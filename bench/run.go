package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/stats"
)

// metricDef declares one metric the benchmark reports. BENCHMARK.json
// declares the same names and units; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the system sees, reported by untraced
// runs. An operation is one call a user makes: a facade call (sweep or
// search) on the library workloads, an HTTP request on serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},           // median of the run's set-ups
	{"pass_s", "s", "lower"},            // median wall time of one pass over the fixed operation list
	{"op_p50_ms", "ms", "lower"},        // median operation latency
	{"op_p90_ms", "ms", "lower"},        // nearest-rank 90th percentile operation latency
	{"retained_heap_mb", "MB", "lower"}, // heap in use once the measured work is done; see retainHeap
}

// perLayer are single layers' numbers, reported by traced runs and
// measured on each workload's own inputs by timing calls into the
// layer's public functions.
var perLayer = []metricDef{
	{"workload.gen_ms", "ms", "lower"},            // generating the workload's traces
	{"trace.compile_ms", "ms", "lower"},           // compiling them
	{"trace.disk_store_ms", "ms", "lower"},        // trace.DiskCache.Store, median per trace
	{"trace.disk_load_ms", "ms", "lower"},         // trace.DiskCache.Load, median per trace
	{"sim.replay_ns_per_ref", "ns", "lower"},      // direct replay of the workload's own design points
	{"sim.refs", "count", "lower"},                // references the engine replayed per pass
	{"rdmodel.profile_ns_per_ref", "ns", "lower"}, // building reuse-distance profiles of its traces
	{"rdmodel.predict_us", "us", "lower"},         // one prediction from a built profile
	{"explorer.point_overhead_us", "us", "lower"}, // engine time per point minus the direct call's
	{"explorer.utilization", "ratio", "higher"},   // engine busy time over workers times wall time
	{"explorer.trace_cache_hit_ratio", "ratio", "higher"},
	{"search.exact_sims", "count", "lower"}, // per pass; 0 on workloads that run no search
	{"search.analytic_evals", "count", "lower"},
	{"search.triage_pruned", "count", "higher"},
	{"serve.handler_us", "us", "lower"},     // a result-cache hit through ServeHTTP, no socket
	{"runtime.peak_heap_mb", "MB", "lower"}, // sampled every 50 ms
}

// workloadNames lists the workloads in the order a full run measures
// them; BENCHMARK.json records why each exists.
var workloadNames = []string{"grid-shared", "grid-widened", "analytic-sweep", "search", "serve-mixed"}

// config sizes a run. paperConfig is what the benchmark measures; the
// smoke test shrinks it.
type config struct {
	scale  sccsim.Scale // problem sizes of the library workloads (seed set per run)
	setups int          // set-ups per run; setup_s is their median
	// multiprogRefs is the multiprog reference budget per application:
	// the paper's 600,000 takes 9 s per exact sweep and as long per cold
	// analytic sweep on a 2-core host; a sixth of it fits a run.
	multiprogRefs int
	// searchMax is the top of the searched SCC size range.
	searchMax int
	serve     serveConfig
	// digests are the recorded output digests a run is checked against
	// (the contents of testdata/digests.json); nil skips the check.
	digests []byte
}

func paperConfig() config {
	return config{
		scale:         sccsim.PaperScale(),
		setups:        3,
		digests:       recordedDigests,
		multiprogRefs: 100_000,
		searchMax:     512 * 1024,
		serve:         serveConfig{scale: sccsim.QuickScale(), rate: 50, closedN: 1000, coldSeeds: 3},
	}
}

// workload is one benchmark workload. set-up builds its inputs (run
// several times; each release drops the previous inputs first), measure
// runs passes for a time budget, probe times direct calls into each
// layer on the workload's own inputs (traced runs only).
type workload interface {
	setup(ctx context.Context, r *run) error
	measure(ctx context.Context, r *run, budget time.Duration) error
	probe(ctx context.Context, r *run) error
	release()
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "grid-shared":
		return gridShared(cfg), nil
	case "grid-widened":
		return gridWidened(cfg), nil
	case "analytic-sweep":
		return analyticSweep(cfg), nil
	case "search":
		return searchMP3D(cfg), nil
	case "serve-mixed":
		return &serveMixed{cfg: cfg.serve}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// run is one workload run's state and measurements.
type run struct {
	workload string
	seed     int64
	workers  int
	work     string    // scratch directory, removed when the run ends
	rec      *recorder // nil outside traced phases
	root     int       // parent span of the calls being made

	setups     []time.Duration
	genMS      []float64 // trace generation per set-up (or probe)
	compileMS  []float64 // trace compilation per set-up (or probe)
	passes     []time.Duration
	ops        []float64            // operation latencies, ms
	opsBy      map[string][]float64 // the same, by operation label
	attempted  int
	failed     int
	problems   []string
	acc        accum
	digests    map[string]string
	inputs     map[string]any
	layer      map[string]float64
	notes      []note
	retainedMB float64 // set by retainHeap
}

// retainHeap records the heap in use, in MB, after dropping the engine's
// package-level trace and profile caches and collecting garbage. The
// caches are dropped because when they last wiped themselves depends on
// timing, which would make the number a measure of luck. A run takes it
// at its end.
func (r *run) retainHeap() {
	sccsim.ResetTraceCache()
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.retainedMB = float64(mem.HeapAlloc) / (1 << 20)
}

// accum collects per-layer numbers over one measuring phase.
type accum struct {
	refs                   uint64 // exactly simulated references
	busy, slots            time.Duration
	traceHits, traceMisses uint64
	exactSims, evals       int
	pruned                 int
	points                 map[string]time.Duration // engine time per design point, by pointID
}

// note is a named value printed with the results but not declared in
// BENCHMARK.json: a diagnostic, or a breakdown of a declared metric.
type note struct {
	name  string
	value float64
	unit  string
}

func (r *run) note(name string, value float64, unit string) {
	r.notes = append(r.notes, note{name, value, unit})
}

// op records one operation: its latency, and its failure if err is set.
// It reports whether the operation succeeded.
func (r *run) op(d time.Duration, what string, err error) bool {
	r.attempted++
	r.ops = append(r.ops, ms(d))
	r.opsBy[what] = append(r.opsBy[what], ms(d))
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// fail counts a failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// digest checks that an output is byte-identical to the same label's
// output in every earlier pass of the run.
func (r *run) digest(label string, body []byte) {
	sum := sha256.Sum256(body)
	d := hex.EncodeToString(sum[:])
	if prev, ok := r.digests[label]; ok && prev != d {
		r.fail("%s: output differs between passes", label)
		return
	}
	r.digests[label] = d
}

// repeat runs passes, at least one, for as long as another pass as long
// as the last one would end nearer the budget than stopping now does:
// the time measured is within half a pass of the budget. On a slow host
// a run measures fewer passes rather than taking longer.
func (r *run) repeat(ctx context.Context, budget time.Duration, pass func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last/2 <= budget; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := r.rec.begin(-1, "bench.pass")
		r.root = sp
		t0 := time.Now()
		err := pass()
		last = time.Since(t0)
		r.rec.end(sp)
		r.passes = append(r.passes, last)
		if err != nil {
			return err
		}
	}
	return nil
}

// result is what one workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload: set-ups, then passes for the time budget.
// A traced run measures half the budget untraced and half traced (the
// difference is the tracing overhead), then probes each layer; it
// reports the per-layer metrics, an untraced run the end-to-end ones.
// Scratch files go to a directory under dir, removed at the end; a
// traced run leaves its Chrome trace in dir/traces.
func execute(ctx context.Context, cfg config, name string, seed int64, budget time.Duration, traced bool, dir string) (*result, *run, error) {
	cfg.scale.Seed = seed
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(dir, "work-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: name, seed: seed, workers: runtime.GOMAXPROCS(0), work: work,
		root: -1, digests: map[string]string{}, inputs: map[string]any{}, layer: map[string]float64{},
		opsBy: map[string][]float64{},
	}
	defer w.release()
	var rec *recorder
	var stopSampler func() float64
	if traced {
		rec = newRecorder()
		stopSampler = samplePeakHeap()
		defer stopSampler()
	}

	for i := 0; i < cfg.setups; i++ {
		w.release()
		runtime.GC()
		r.rec = rec
		sp := rec.begin(-1, "bench.setup")
		r.root = sp
		t0 := time.Now()
		err := w.setup(ctx, r)
		r.setups = append(r.setups, time.Since(t0))
		rec.end(sp)
		if err != nil {
			return nil, r, fmt.Errorf("%s set-up: %w", name, err)
		}
	}

	r.rec = nil
	if traced {
		budget /= 2
	}
	if err := w.measure(ctx, r, budget); err != nil {
		return nil, r, err
	}
	if traced {
		untraced := stats.Median(durationsS(r.passes))
		r.passes, r.ops, r.notes, r.acc = nil, nil, nil, accum{}
		r.opsBy = map[string][]float64{}
		r.rec = rec
		if err := w.measure(ctx, r, budget); err != nil {
			return nil, r, err
		}
		tracedPass := stats.Median(durationsS(r.passes))
		r.note("tracing_overhead_s", tracedPass-untraced, "s")
		r.note("tracing_overhead_pct", 100*(tracedPass-untraced)/untraced, "%")
		r.root = rec.begin(-1, "bench.probe")
		if err := w.probe(ctx, r); err != nil {
			return nil, r, fmt.Errorf("%s probe: %w", name, err)
		}
		rec.end(r.root)
		r.layer["workload.gen_ms"] = stats.Median(r.genMS)
		r.layer["trace.compile_ms"] = stats.Median(r.compileMS)
		r.layer["runtime.peak_heap_mb"] = stopSampler()
		if err := r.writeTrace(filepath.Join(dir, "traces"), rec.snapshot()); err != nil {
			return nil, r, err
		}
	}
	r.checkDigests(cfg.digests)
	for _, l := range sortedKeys(r.opsBy) {
		r.note("op_ms."+l, stats.Median(r.opsBy[l]), "ms")
	}

	r.retainHeap()

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{r.layer[d.name], d.unit}
		}
	} else {
		p50, p90 := nearestRank(r.ops, 50), nearestRank(r.ops, 90)
		res.Metrics["setup_s"] = metric{stats.Median(durationsS(r.setups)), "s"}
		res.Metrics["pass_s"] = metric{stats.Median(durationsS(r.passes)), "s"}
		res.Metrics["op_p50_ms"] = metric{p50, "ms"}
		res.Metrics["op_p90_ms"] = metric{p90, "ms"}
		res.Metrics["retained_heap_mb"] = metric{r.retainedMB, "MB"}
	}
	r.inputs["passes"] = len(r.passes)
	r.inputs["operations"] = len(r.ops)
	r.inputs["setups"] = len(r.setups)
	return res, r, nil
}

// writeTrace writes the traced run's Chrome trace and prints each
// layer's self time and span count.
func (r *run) writeTrace(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, r.workload, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.inputs["chrome_trace"] = path
	var passes time.Duration
	for _, s := range spans {
		if s.name == "bench.pass" {
			passes += s.dur()
		}
	}
	for _, lt := range layerTimes(spans) {
		r.note("self_ms."+lt.layer, ms(lt.self), "ms")
		r.note("spans."+lt.layer, float64(lt.spans), "count")
	}
	r.note("traced_pass_total_ms", ms(passes), "ms")
	return nil
}

// samplePeakHeap samples the live heap every 50 ms until the returned
// function is first called, which stops the sampler and returns the
// peak in MB. Later calls return the same peak.
func samplePeakHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	stop := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		once.Do(func() {
			close(stop)
			wg.Wait()
		})
		return float64(peak) / (1 << 20)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// digestFile holds the expected output digests: workload, then seed,
// then output label.
type digestFile map[string]map[string]map[string]string

// digestPath is where -update-digests writes, relative to the
// repository root. Checks read the copy built into the binary, so they
// do not depend on the working directory.
var digestPath = filepath.Join("bench", "testdata", "digests.json")

//go:embed testdata/digests.json
var recordedDigests []byte

// digestSeeds are the seeds whose digests must be recorded for every
// workload that produces digests.
var digestSeeds = []int64{1, 2}

func parseDigests(b []byte) (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestPath, err)
	}
	return d, nil
}

// checkDigests compares the run's output digests with the recorded ones
// for its workload and seed: the same labels, each with the same digest.
// For the seeds in digestSeeds a record must exist.
func (r *run) checkDigests(recorded []byte) {
	if len(r.digests) == 0 || recorded == nil {
		return
	}
	all, err := parseDigests(recorded)
	if err != nil {
		r.fail("reading digests: %v", err)
		return
	}
	want := all[r.workload][strconv.FormatInt(r.seed, 10)]
	if want == nil {
		if slices.Contains(digestSeeds, r.seed) {
			r.fail("%s has no digests for %s seed %d; record them with -update-digests", digestPath, r.workload, r.seed)
		}
		return
	}
	for _, l := range sortedKeys(r.digests) {
		if w, ok := want[l]; !ok || w != r.digests[l] {
			r.fail("%s: output digest does not match %s", l, digestPath)
		}
	}
	for _, l := range sortedKeys(want) {
		if _, ok := r.digests[l]; !ok {
			r.fail("%s: recorded in %s but not produced", l, digestPath)
		}
	}
}

// updateDigests records the run's digests as the expected ones in the
// file at digestPath.
func (r *run) updateDigests() error {
	b, err := os.ReadFile(digestPath)
	if err != nil {
		return fmt.Errorf("-update-digests runs from the repository root: %w", err)
	}
	all, err := parseDigests(b)
	if err != nil {
		return err
	}
	if all[r.workload] == nil {
		all[r.workload] = map[string]map[string]string{}
	}
	all[r.workload][strconv.FormatInt(r.seed, 10)] = r.digests
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath, append(out, '\n'), 0o644)
}
