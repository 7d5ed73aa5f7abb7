package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sccsim"
	"sccsim/internal/mem"
	"sccsim/internal/rdmodel"
	"sccsim/internal/sim"
	"sccsim/internal/stats"
	"sccsim/internal/trace"
	"sccsim/internal/workload/multiprog"
)

// call is one facade call of a library workload's pass: a sweep, or a
// search when search is set. label names its output in the digests.
type call struct {
	label   string
	app     sccsim.Workload
	backend sccsim.Backend
	axes    sccsim.Axes
	search  *sccsim.SearchSpec
}

// libWorkload is a workload driven through the sccsim library facade.
// Set-up generates and compiles every trace a pass needs and files them
// in an in-memory trace store; a pass makes the same facade calls over
// them every time.
type libWorkload struct {
	scale  sccsim.Scale
	apps   []sccsim.Workload // parallel apps whose traces set-up builds
	mpRefs int               // multiprog refs per app; 0: no multiprog traces
	calls  []call
	// coldProfiles drops the engine's trace and profile caches before
	// every pass, so analytic sweeps rebuild their profiles each time.
	coldProfiles bool
	in           *traceSet
}

// gridShared is the paper's own evaluation: the exact 8x4 grid of the
// three SPLASH applications, over warm traces.
func gridShared(cfg config) *libWorkload {
	w := &libWorkload{scale: cfg.scale, apps: []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky}}
	for _, app := range w.apps {
		w.calls = append(w.calls, call{label: string(app), app: app, backend: sccsim.BackendExact})
	}
	return w
}

// gridWidened runs the simulator's other code paths: the multiprog
// quantum scheduler, the private and hybrid hierarchies (the per-
// reference access closure) and set-associative tags. The hierarchies
// run MP3D, whose paper-scale grid takes a third of Barnes-Hut's time,
// so a pass fits the run length.
func gridWidened(cfg config) *libWorkload {
	ex := sccsim.BackendExact
	return &libWorkload{
		scale: cfg.scale, apps: []sccsim.Workload{sccsim.MP3D, sccsim.Cholesky}, mpRefs: cfg.multiprogRefs,
		calls: []call{
			{label: "multiprog", app: sccsim.Multiprog, backend: ex},
			{label: "mp3d/private", app: sccsim.MP3D, backend: ex, axes: sccsim.Axes{Hierarchy: sccsim.HierarchyPrivate}},
			{label: "mp3d/hybrid", app: sccsim.MP3D, backend: ex, axes: sccsim.Axes{Hierarchy: sccsim.HierarchyHybrid}},
			{label: "cholesky/4way", app: sccsim.Cholesky, backend: ex, axes: sccsim.Axes{Assoc: 4, Repl: sccsim.ReplLRU}},
		},
	}
}

// analyticSweep runs cold analytic sweeps of all four applications:
// every pass starts with empty trace and profile caches, so each sweep
// builds its reuse-distance profiles.
func analyticSweep(cfg config) *libWorkload {
	w := &libWorkload{
		scale: cfg.scale, apps: []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky},
		mpRefs: cfg.multiprogRefs, coldProfiles: true,
	}
	for _, app := range sccsim.AllWorkloads {
		w.calls = append(w.calls, call{label: "analytic/" + string(app), app: app, backend: sccsim.BackendAnalytic})
	}
	return w
}

// searchMP3D runs three adaptive searches on MP3D over 4 KB..searchMax
// in 1 KB steps with an exact-simulation budget of 32. Every pass starts
// with empty caches, so the first search builds the profiles its triage
// reads and the other two find them built; the median search is a warm
// one.
func searchMP3D(cfg config) *libWorkload {
	w := &libWorkload{scale: cfg.scale, apps: []sccsim.Workload{sccsim.MP3D}, coldProfiles: true}
	space := sccsim.SearchSpace{SCCBytesMin: 4 * 1024, SCCBytesMax: cfg.searchMax, SCCBytesStep: 1024}
	objectives := map[string][]sccsim.SearchObjective{
		"cycles-area":    nil,
		"cost-perf":      {sccsim.SearchObjectiveCostPerf},
		"all-objectives": {sccsim.SearchObjectiveCycles, sccsim.SearchObjectiveArea, sccsim.SearchObjectiveCostPerf},
	}
	for _, name := range []string{"cycles-area", "cost-perf", "all-objectives"} {
		spec := &sccsim.SearchSpec{Space: space, Objectives: objectives[name], Strategy: sccsim.SearchAdaptive, Budget: 32}
		w.calls = append(w.calls, call{label: "search/" + name, app: sccsim.MP3D, search: spec})
	}
	return w
}

func (w *libWorkload) release() {
	w.in = nil
	sccsim.ResetTraceCache()
}

func (w *libWorkload) setup(ctx context.Context, r *run) error {
	in, err := buildTraces(r, w.scale, w.apps, w.mpRefs)
	if err != nil {
		return err
	}
	w.in = in
	r.inputs["scale"] = in.scale
	r.inputs["trace_refs"] = in.refs
	r.inputs["traces"] = len(in.store.progs)
	return nil
}

// measure runs passes for the budget. Every pass makes the same calls,
// so the operation latencies it reports are each call's median over
// the passes: the percentiles then do not depend on how many passes fit.
func (w *libWorkload) measure(ctx context.Context, r *run, budget time.Duration) error {
	defer func() {
		r.ops = r.ops[:0]
		for _, l := range sortedKeys(r.opsBy) {
			r.ops = append(r.ops, stats.Median(r.opsBy[l]))
		}
	}()
	return r.repeat(ctx, budget, func() error {
		if w.coldProfiles {
			sccsim.ResetTraceCache()
		}
		for _, c := range w.calls {
			if c.search != nil {
				r.search(ctx, w.in, c)
			} else {
				r.sweep(ctx, w.in, c)
			}
		}
		if n := w.in.store.stored.Load(); n > 0 {
			r.fail("the engine generated %d traces during the pass: the trace store's keys no longer match the engine's", n)
		}
		return ctx.Err()
	})
}

// sweep makes one SweepCtx call.
func (r *run) sweep(ctx context.Context, in *traceSet, c call) {
	spanName, pointName := "explorer.sweep", "sim.point"
	if c.backend == sccsim.BackendAnalytic {
		spanName, pointName = "explorer.analytic_sweep", "rdmodel.point"
	}
	sp := r.rec.begin(r.root, spanName)
	in.store.parent.Store(int64(sp))
	var rep *sccsim.SweepReport
	t0 := time.Now()
	g, err := sccsim.SweepCtx(ctx, c.app,
		sccsim.WithScale(in.scale), sccsim.WithBackend(c.backend), sccsim.WithAxes(c.axes),
		sccsim.WithParallelism(r.workers), sccsim.WithTraceStore(in.store),
		sccsim.WithProgress(func(p sccsim.Progress) {
			r.rec.done(sp, pointName, p.PointTime)
			r.acc.point(c.label, p)
		}),
		sccsim.WithSweepReport(func(x sccsim.SweepReport) { rep = &x }))
	r.rec.end(sp)
	if !r.op(time.Since(t0), c.label, err) {
		return
	}
	if rep == nil {
		r.fail("%s: no sweep report", c.label)
		return
	}
	r.acc.busy += rep.Busy
	r.acc.slots += time.Duration(rep.Workers) * rep.Wall
	r.acc.traceHits += rep.TraceHits
	r.acc.traceMisses += rep.TraceMisses
	if rep.TraceGenerated > 0 {
		r.fail("%s: the engine generated %d traces", c.label, rep.TraceGenerated)
	}
	if c.backend == sccsim.BackendExact {
		for _, row := range g.Points {
			for _, p := range row {
				r.acc.refs += p.Result.Refs
			}
		}
	}
	body, err := json.Marshal(g)
	if err != nil {
		r.fail("%s: %v", c.label, err)
		return
	}
	r.digest(c.label, body)
}

// search makes one SearchCtx call. Its exact confirmations arrive
// through the engine's Progress hook, its stages through the search
// progress hook; each stage becomes a span.
func (r *run) search(ctx context.Context, in *traceSet, c call) {
	sp := r.rec.begin(r.root, "search.run")
	in.store.parent.Store(int64(sp))
	var stage atomic.Int64
	stage.Store(int64(sp))
	stageName := ""
	spec := *c.search
	spec.Seed = r.seed
	t0 := time.Now()
	res, err := sccsim.SearchCtx(ctx, c.app, spec,
		sccsim.WithScale(in.scale), sccsim.WithParallelism(r.workers), sccsim.WithTraceStore(in.store),
		sccsim.WithProgress(func(p sccsim.Progress) {
			r.rec.done(int(stage.Load()), "sim.point", p.PointTime)
			r.acc.point(c.label, p)
		}),
		sccsim.WithSearchProgress(func(p sccsim.SearchProgress) {
			if p.Phase == stageName {
				return
			}
			if prev := int(stage.Load()); prev != sp {
				r.rec.end(prev)
			}
			stageName = p.Phase
			stage.Store(int64(r.rec.begin(sp, "search."+p.Phase)))
		}))
	if s := int(stage.Load()); s != sp {
		r.rec.end(s)
	}
	r.rec.end(sp)
	if !r.op(time.Since(t0), c.label, err) {
		return
	}
	st := res.Stats
	r.acc.exactSims += st.ExactSims
	r.acc.evals += st.AnalyticEvals
	r.acc.pruned += st.TriagePruned
	for _, p := range res.Evaluated {
		r.acc.refs += in.refsOf(c.app, sccsim.DefaultConfig(p.PPC, p.SCCBytes).Procs())
	}
	body, err := json.Marshal(res.Frontier)
	if err != nil {
		r.fail("%s: %v", c.label, err)
		return
	}
	r.digest(c.label, body)
}

// pointID names one design point of one call.
func pointID(label string, ppc, sccBytes int) string {
	return fmt.Sprintf("%s/%dP/%dK", label, ppc, sccBytes/1024)
}

func (a *accum) point(label string, p sccsim.Progress) {
	if a.points == nil {
		a.points = map[string]time.Duration{}
	}
	a.points[pointID(label, p.Config.ProcsPerCluster, p.Config.SCCBytes)] = p.PointTime
}

// probeSize is the SCC size of the sampled design points: the paper's
// 64 KB baseline.
const probeSize = 64 * 1024

// probe times each layer directly on the workload's own inputs. The
// sampled design points are each sweep's four 64 KB points (ppc 1 only
// for analytic sweeps, whose other points share a profile) and each
// search's first exactly simulated points.
func (w *libWorkload) probe(ctx context.Context, r *run) error {
	in := w.in
	// Replay comes first, before the probes below allocate, and runs
	// the sampled points as concurrently as the engine ran them, so the
	// direct and the engine times are taken under the same conditions.
	runtime.GC()
	var replay time.Duration
	var replayRefs uint64
	var overheads []float64
	byKind := map[string][2]float64{} // replay ns and refs per hierarchy kind
	for _, c := range w.calls {
		if c.backend == sccsim.BackendAnalytic {
			continue
		}
		pts := w.samplePoints(r, c)
		durs := make([]time.Duration, len(pts))
		refs := make([]uint64, len(pts))
		errs := parallel(ctx, len(pts), r.workers, func(i int) error {
			sp := r.rec.begin(r.root, "sim.replay")
			t0 := time.Now()
			res, err := w.replay(c.app, pts[i].cfg)
			durs[i] = time.Since(t0)
			r.rec.end(sp)
			if err == nil {
				refs[i] = res.Refs
			}
			return err
		})
		for i, pt := range pts {
			if errs[i] != nil {
				return fmt.Errorf("replay %s: %w", pt.id, errs[i])
			}
			replay += durs[i]
			replayRefs += refs[i]
			kind := hierarchyKind(c.app, pt.cfg)
			k := byKind[kind]
			byKind[kind] = [2]float64{k[0] + float64(durs[i]), k[1] + float64(refs[i])}
			if engine, ok := r.acc.points[pt.id]; ok {
				overheads = append(overheads, us(engine-durs[i]))
			}
		}
	}
	if replayRefs > 0 {
		r.layer["sim.replay_ns_per_ref"] = float64(replay) / float64(replayRefs)
	}
	for _, kind := range sortedKeys(byKind) {
		r.note("sim.replay_ns_per_ref."+kind, byKind[kind][0]/byKind[kind][1], "ns")
	}

	samples := in.sampleTraces(w.apps)
	if err := r.probeDisk(samples); err != nil {
		return err
	}
	profiles, err := r.probeModel(samples, in.mp, in.mpRefs)
	if err != nil {
		return err
	}
	for _, c := range w.calls {
		if c.backend != sccsim.BackendAnalytic {
			continue
		}
		for _, pt := range w.samplePoints(r, c) {
			sp := r.rec.begin(r.root, "rdmodel.predict")
			t0 := time.Now()
			_, err := profiles[c.app].Predict(pt.cfg.SCCBytes, pt.cfg.Assoc)
			d := time.Since(t0)
			r.rec.end(sp)
			if err != nil {
				return fmt.Errorf("predict %s: %w", pt.id, err)
			}
			if engine, ok := r.acc.points[pt.id]; ok {
				overheads = append(overheads, us(engine-d))
			}
		}
	}
	r.layer["explorer.point_overhead_us"] = stats.Median(overheads)
	r.accumLayers()

	h, err := serveProbe(ctx, r, samples[0].app, in.scale)
	if err != nil {
		return err
	}
	r.layer["serve.handler_us"] = h
	return nil
}

// probeModel builds the reuse-distance profile of each sample trace, as
// the analytic backend would for one processor per cluster (a scheduled
// profile with one slot for the multiprog set), and times predictions
// of every paper SCC size off them.
func (r *run) probeModel(samples []sampleTrace, mp []sim.Process, mpRefs int) (map[sccsim.Workload]*rdmodel.Profile, error) {
	profiles := map[sccsim.Workload]*rdmodel.Profile{}
	var total time.Duration
	var refs uint64
	for _, s := range samples {
		sp := r.rec.begin(r.root, "rdmodel.profile")
		t0 := time.Now()
		var prof *rdmodel.Profile
		var err error
		if s.app == sccsim.Multiprog {
			streams := make([][]mem.Ref, len(mp))
			for i := range mp {
				streams[i] = mp[i].Refs
			}
			prof, err = rdmodel.BuildScheduledProfile("multiprog", streams, 1, multiprog.Quantum(mpRefs), rdmodel.DefaultCap())
		} else {
			var comp *trace.Compiled
			if comp, err = trace.Compile(s.prog); err == nil {
				prof, err = rdmodel.BuildProfile(comp, sccsim.DefaultConfig(1, probeSize).Clusters, rdmodel.DefaultCap())
			}
		}
		d := time.Since(t0)
		r.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", s.app, err)
		}
		profiles[s.app] = prof
		total += d
		refs += prof.Refs
		r.note("rdmodel.profile_ns_per_ref."+string(s.app), float64(d)/float64(prof.Refs), "ns")
	}
	r.layer["rdmodel.profile_ns_per_ref"] = float64(total) / float64(refs)
	var predicts []float64
	for _, s := range samples {
		for rep := 0; rep < 5; rep++ {
			for _, size := range sccsim.SCCSizes {
				sp := r.rec.begin(r.root, "rdmodel.predict")
				t0 := time.Now()
				_, err := profiles[s.app].Predict(size, 1)
				d := time.Since(t0)
				r.rec.end(sp)
				if err != nil {
					return nil, fmt.Errorf("predict %s: %w", s.app, err)
				}
				predicts = append(predicts, us(d))
			}
		}
	}
	r.layer["rdmodel.predict_us"] = stats.Median(predicts)
	return profiles, nil
}

// accumLayers turns the traced phase's accumulators into per-layer
// metrics.
func (r *run) accumLayers() {
	a, n := r.acc, float64(max(1, len(r.passes)))
	if a.slots > 0 {
		r.layer["explorer.utilization"] = float64(a.busy) / float64(a.slots)
	}
	if a.traceHits+a.traceMisses > 0 {
		r.layer["explorer.trace_cache_hit_ratio"] = float64(a.traceHits) / float64(a.traceHits+a.traceMisses)
	}
	r.layer["search.exact_sims"] = float64(a.exactSims) / n
	r.layer["search.analytic_evals"] = float64(a.evals) / n
	r.layer["search.triage_pruned"] = float64(a.pruned) / n
	r.layer["sim.refs"] = float64(a.refs) / n
}

// hierarchyKind names the simulator path a configuration takes.
func hierarchyKind(app sccsim.Workload, cfg sccsim.Config) string {
	switch {
	case app == sccsim.Multiprog:
		return "multiprog"
	case cfg.Hierarchy != "" && cfg.Hierarchy != sccsim.HierarchyShared:
		return cfg.Hierarchy
	case cfg.Assoc > 1:
		return fmt.Sprintf("shared-%dway", cfg.Assoc)
	}
	return "shared-dm"
}

type samplePoint struct {
	id  string
	cfg sccsim.Config
}

// samplePoints lists the design points of one call the probe times
// directly, configured exactly as the engine configured them.
func (w *libWorkload) samplePoints(r *run, c call) []samplePoint {
	var out []samplePoint
	if c.search != nil {
		var ids []string
		prefix := c.label + "/"
		for id := range r.acc.points {
			if strings.HasPrefix(id, prefix) {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids[:min(4, len(ids))] {
			var ppc, kb int
			if _, err := fmt.Sscanf(strings.TrimPrefix(id, prefix), "%dP/%dK", &ppc, &kb); err == nil {
				out = append(out, samplePoint{id, sccsim.DefaultConfig(ppc, kb*1024)})
			}
		}
		return out
	}
	ppcs := sccsim.ProcsPerClusterSweep
	if c.backend == sccsim.BackendAnalytic {
		ppcs = ppcs[:1]
	}
	for _, ppc := range ppcs {
		cfg := sccsim.DefaultConfig(ppc, probeSize)
		if c.app == sccsim.Multiprog {
			cfg.Clusters = 1
		}
		out = append(out, samplePoint{pointID(c.label, ppc, probeSize), c.axes.Apply(cfg)})
	}
	return out
}

// replay simulates one design point directly on the set-up's trace.
func (w *libWorkload) replay(app sccsim.Workload, cfg sccsim.Config) (*sccsim.Result, error) {
	if app == sccsim.Multiprog {
		return sim.RunMultiprog(cfg, sim.Options{}, w.in.mp, multiprog.Quantum(w.in.mpRefs))
	}
	prog := w.in.progs[traceKey{app, cfg.Procs()}]
	if prog == nil {
		return nil, fmt.Errorf("no %d-processor %s trace", cfg.Procs(), app)
	}
	return sim.Run(cfg, sim.Options{}, prog)
}

// probeDisk stores each sample trace in a fresh disk cache and loads it
// back.
func (r *run) probeDisk(samples []sampleTrace) error {
	dc, err := trace.NewDiskCache(filepath.Join(r.work, "disk-probe"))
	if err != nil {
		return err
	}
	var stores, loads []float64
	for i, s := range samples {
		key := fmt.Sprintf("probe-%d-%s", i, s.app)
		sp := r.rec.begin(r.root, "trace.disk_store")
		t0 := time.Now()
		err := dc.Store(key, s.prog)
		stores = append(stores, ms(time.Since(t0)))
		r.rec.end(sp)
		if err != nil {
			return err
		}
		sp = r.rec.begin(r.root, "trace.disk_load")
		t0 = time.Now()
		p, err := dc.Load(key)
		loads = append(loads, ms(time.Since(t0)))
		r.rec.end(sp)
		if err != nil || p == nil || p.Refs() != s.prog.Refs() {
			return fmt.Errorf("disk cache round trip of %s failed (%v)", key, err)
		}
	}
	r.layer["trace.disk_store_ms"] = stats.Median(stores)
	r.layer["trace.disk_load_ms"] = stats.Median(loads)
	return nil
}

// traceKey names one parallel trace of a trace set.
type traceKey struct {
	app   sccsim.Workload
	procs int
}

// traceSet is a library workload's inputs: every trace a pass needs,
// generated and compiled at set-up, and the store the engine reads them
// from.
type traceSet struct {
	scale   sccsim.Scale
	progs   map[traceKey]*trace.Program
	mp      []sim.Process
	mpRefs  int
	refs    uint64 // total references over every trace
	store   *memStore
	gen     time.Duration
	compile time.Duration
}

func (in *traceSet) refsOf(app sccsim.Workload, procs int) uint64 {
	if p := in.progs[traceKey{app, procs}]; p != nil {
		return p.Refs()
	}
	return 0
}

type sampleTrace struct {
	app  sccsim.Workload
	prog *trace.Program
}

// sampleTraces are the traces the layer probes use: each parallel app's
// one-processor-per-cluster trace, and the multiprog set.
func (in *traceSet) sampleTraces(apps []sccsim.Workload) []sampleTrace {
	var out []sampleTrace
	for _, app := range apps {
		out = append(out, sampleTrace{app, in.progs[traceKey{app, sccsim.DefaultConfig(1, probeSize).Procs()}]})
	}
	if in.mp != nil {
		out = append(out, sampleTrace{sccsim.Multiprog, packProcesses(in.mp)})
	}
	return out
}

// buildTraces generates and compiles every trace of the given apps at
// each processor count of the paper's sweep, plus the multiprog process
// set when mpRefs > 0, and files them under the engine's cache keys.
func buildTraces(r *run, scale sccsim.Scale, apps []sccsim.Workload, mpRefs int) (*traceSet, error) {
	if mpRefs > 0 {
		scale.MultiprogRefs = mpRefs
	}
	in := &traceSet{scale: scale, progs: map[traceKey]*trace.Program{}, mpRefs: mpRefs, store: &memStore{run: r, progs: map[string]*trace.Program{}}}
	for _, app := range apps {
		for _, ppc := range sccsim.ProcsPerClusterSweep {
			procs := sccsim.DefaultConfig(ppc, probeSize).Procs()
			sp := r.rec.begin(r.root, "workload.generate")
			t0 := time.Now()
			prog, err := sccsim.GenerateTrace(app, procs, scale)
			in.gen += time.Since(t0)
			r.rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = r.rec.begin(r.root, "trace.compile")
			t0 = time.Now()
			_, err = trace.Compile(prog)
			in.compile += time.Since(t0)
			r.rec.end(sp)
			if err != nil {
				return nil, err
			}
			in.progs[traceKey{app, procs}] = prog
			in.store.progs[parallelKey(app, procs, scale)] = prog
			in.refs += prog.Refs()
		}
	}
	if mpRefs > 0 {
		sp := r.rec.begin(r.root, "workload.generate")
		t0 := time.Now()
		pset, err := multiprog.Generate(multiprog.Params{RefsPerApp: mpRefs, Seed: scale.Seed})
		in.gen += time.Since(t0)
		r.rec.end(sp)
		if err != nil {
			return nil, err
		}
		in.mp = pset
		in.store.progs[multiprogKey(mpRefs, scale.Seed)] = packProcesses(pset)
		for _, p := range pset {
			in.refs += uint64(len(p.Refs))
		}
	}
	r.genMS = append(r.genMS, ms(in.gen))
	r.compileMS = append(r.compileMS, ms(in.compile))
	return in, nil
}

// memStore is the trace.Store the library workloads hand the engine
// (sccsim.WithTraceStore). Set-up fills it; the engine only reads it, so
// measured passes never run a generator. In traced runs each lookup is
// a span under the call that made it.
type memStore struct {
	run    *run
	progs  map[string]*trace.Program // written only at set-up
	parent atomic.Int64              // span of the facade call in progress
	stored atomic.Int64              // traces the engine generated and stored
}

func (s *memStore) Load(key string) (*trace.Program, error) {
	sp := s.run.rec.begin(int(s.parent.Load()), "trace.store_load")
	p := s.progs[key]
	s.run.rec.end(sp)
	return p, nil
}

func (s *memStore) Store(string, *trace.Program) error {
	s.stored.Add(1)
	return nil
}

// parallelKey and multiprogKey are the engine's trace-cache keys
// (explorer's parallelDiskKey and multiprogDiskKey). Every pass checks
// that the engine generated nothing, so if they drift the run fails
// instead of silently timing trace generation.
func parallelKey(w sccsim.Workload, procs int, s sccsim.Scale) string {
	return fmt.Sprintf("scct%d-%s-p%d-seed%d-bb%d-bs%d-mp%d-ms%d-cw%d-ch%d",
		trace.FormatVersion, w, procs, s.Seed, s.BarnesBodies, s.BarnesSteps,
		s.MP3DParticles, s.MP3DSteps, s.CholeskyGridW, s.CholeskyGridH)
}

func multiprogKey(refs int, seed int64) string {
	return fmt.Sprintf("scct%d-multiprog-refs%d-seed%d", trace.FormatVersion, refs, seed)
}

// packProcesses is the engine's container for a multiprog process set
// in a trace store: one single-processor phase per process.
func packProcesses(pset []sim.Process) *trace.Program {
	p := &trace.Program{Name: "multiprog", Procs: 1, Phases: make([]trace.Phase, len(pset))}
	for i, ps := range pset {
		p.Phases[i] = trace.Phase{Name: ps.Name, Streams: [][]mem.Ref{ps.Refs}}
	}
	return p
}
