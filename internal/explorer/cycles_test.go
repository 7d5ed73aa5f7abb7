package explorer

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sccsim/internal/obs"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/verify"
)

// tinyMultiprog is a multiprogramming scale whose grid simulates in a
// fraction of a second, under -race too.
func tinyMultiprog(seed int64) Scale { return Scale{MultiprogRefs: 6000, Seed: seed} }

// countingEngine returns engine options whose Progress hook counts the
// points the engine runs into *ran.
func countingEngine(ran *int) EngineOptions {
	return EngineOptions{Progress: func(Progress) { *ran++ }}
}

type nopTracer struct{}

func (nopTracer) Emit(obs.Event) {}

// TestCyclesKeyCoversOptions: every sim.Options field is either on the
// result-neutral list newCyclesKey zeroes, or a plain value the key
// compares, so a field added to sim.Options fails here until it is
// placed on one side or the other.
func TestCyclesKeyCoversOptions(t *testing.T) {
	neutral := map[string]any{"Tracer": nopTracer{}, "Metrics": obs.NewRegistry(), "Verify": &verify.Options{}}
	typ := reflect.TypeOf(sim.Options{})
	for name := range neutral {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("the result-neutral list names %s, which sim.Options lacks", name)
		}
	}
	cfg := PointConfig(MP3D, 2, 32<<10, sysmodel.Axes{})
	base := newCyclesKey(MP3D, cfg, QuickScale(), sim.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o sim.Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		if val, ok := neutral[f.Name]; ok {
			v.Set(reflect.ValueOf(val))
			if newCyclesKey(MP3D, cfg, QuickScale(), o) != base {
				t.Errorf("sim.Options.%s is result-neutral but changes the key", f.Name)
			}
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("x")
		case reflect.Float32, reflect.Float64:
			v.SetFloat(1)
		default:
			t.Errorf("sim.Options.%s (%s) is neither a plain value the exact-cycles key compares nor on the result-neutral list", f.Name, f.Type)
			continue
		}
		if newCyclesKey(MP3D, cfg, QuickScale(), o) == base {
			t.Errorf("sim.Options.%s changes a result but not the key", f.Name)
		}
	}
}

// TestCyclesDroppedOnResetAndEviction: ExactCycles simulates a point
// once and then reads its record, until ResetTraceCache drops it or the
// table, filled past its budget, evicts it. The table never holds more
// than its budget, and the registry reports its hits, bytes and
// evictions.
func TestCyclesDroppedOnResetAndEviction(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	ctx, s := context.Background(), tinyMultiprog(41)
	cfgs := []sysmodel.Config{PointConfig(Multiprog, 2, 16<<10, sysmodel.Axes{})}
	reg := obs.NewRegistry()
	ran := 0
	eng := countingEngine(&ran)
	eng.Metrics = reg
	exact := func(what string, wantRan int) uint64 {
		t.Helper()
		ran = 0
		c, err := ExactCycles(ctx, Multiprog, cfgs, s, sim.Options{}, eng)
		if err != nil {
			t.Fatal(err)
		}
		if ran != wantRan {
			t.Fatalf("%s: ExactCycles ran %d points, want %d", what, ran, wantRan)
		}
		return c[0]
	}
	want := exact("cold", 1)
	if got := exact("recorded", 0); got != want {
		t.Fatalf("recorded cycles %d, simulated %d", got, want)
	}
	if hits := reg.Counter("explorer.cycles_cache_hits").Value(); hits != 1 {
		t.Errorf("explorer.cycles_cache_hits = %d, want 1", hits)
	}
	if b := reg.Gauge("explorer.cycles_cache_bytes").Value(); b != cyclesEntryBytes {
		t.Errorf("explorer.cycles_cache_bytes = %d, want one entry's %d", b, cyclesEntryBytes)
	}
	ResetTraceCache()
	if got := exact("after a reset", 1); got != want {
		t.Fatalf("cycles after a reset %d, want %d", got, want)
	}

	// Record as many other points as the table holds, through the
	// recording path: the least recently used entry, the real point,
	// goes.
	n := cyclesBudget / cyclesEntryBytes
	fill := make([]sysmodel.Config, n)
	pts := make([]*Point, n)
	for i := range fill {
		fill[i] = sysmodel.Config{SCCBytes: i + 1}
		pts[i] = &Point{Config: fill[i], Result: &sim.Result{Cycles: uint64(i)}}
	}
	recordCycles(Multiprog, fill, s, sim.Options{}, pts, &traceCounters{reg: reg})
	if b := cycles.heldBytes(); b > cyclesBudget {
		t.Fatalf("the table holds %d bytes, over its %d-byte budget", b, int64(cyclesBudget))
	}
	if ev := reg.Counter("explorer.cycles_cache_evictions").Value(); ev != 1 {
		t.Errorf("explorer.cycles_cache_evictions = %d, want 1", ev)
	}
	if b := reg.Gauge("explorer.cycles_cache_bytes").Value(); b != cyclesBudget {
		t.Errorf("explorer.cycles_cache_bytes = %d, want the full %d", b, int64(cyclesBudget))
	}
	if got := exact("after eviction", 1); got != want {
		t.Fatalf("cycles after eviction %d, want %d", got, want)
	}
}

// TestCyclesChargeCoversHeap: a full table holds no more heap than it
// is charged, so cyclesBudget bounds its memory.
func TestCyclesChargeCoversHeap(t *testing.T) {
	m := &memo[cyclesKey, uint64]{budget: cyclesBudget, minCharge: cyclesEntryBytes}
	n := cyclesBudget / cyclesEntryBytes
	s := QuickScale()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		// The largest keys: a hybrid configuration with every string
		// axis set, a distinct trace key string each.
		s.Seed = int64(i)
		cfg := PointConfig(MP3D, 8, 4<<10, sysmodel.Axes{Assoc: 2, Repl: sysmodel.ReplRandom, Hierarchy: sysmodel.HierarchyHybrid})
		m.get(newCyclesKey(MP3D, cfg, s, sim.Options{}), func() (uint64, error) { return uint64(i), nil })
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
	t.Logf("%d entries: %d heap bytes each", n, per)
	if per > cyclesEntryBytes {
		t.Errorf("an entry holds %d heap bytes, more than the %d it is charged", per, cyclesEntryBytes)
	}
	if m.heldBytes() != cyclesBudget {
		t.Errorf("the full table is charged %d bytes, want %d", m.heldBytes(), int64(cyclesBudget))
	}
	runtime.KeepAlive(m)
}

// TestExactCyclesSimulatesCheckedCalls: with a tracer or the checker
// attached, ExactCycles reads no record: every configuration runs.
func TestExactCyclesSimulatesCheckedCalls(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	ctx, s := context.Background(), tinyMultiprog(42)
	cfgs := []sysmodel.Config{
		PointConfig(Multiprog, 1, 8<<10, sysmodel.Axes{}),
		PointConfig(Multiprog, 4, 32<<10, sysmodel.Axes{}),
	}
	ran := 0
	want, err := ExactCycles(ctx, Multiprog, cfgs, s, sim.Options{}, countingEngine(&ran))
	if err != nil {
		t.Fatal(err)
	}
	traced := countingEngine(&ran)
	traced.NewTracer = func(sysmodel.Config) sim.Tracer { return nopTracer{} }
	for name, run := range map[string]struct {
		opts sim.Options
		eng  EngineOptions
	}{
		"opts.Verify":   {sim.Options{Verify: &verify.Options{}}, countingEngine(&ran)},
		"opts.Tracer":   {sim.Options{Tracer: nopTracer{}}, countingEngine(&ran)},
		"eng.NewTracer": {sim.Options{}, traced},
	} {
		ran = 0
		got, err := ExactCycles(ctx, Multiprog, cfgs, s, run.opts, run.eng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ran != len(cfgs) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ran %d points for %v, want %d for %v", name, ran, got, len(cfgs), want)
		}
	}
	if _, err := ExactCycles(ctx, Multiprog, cfgs, s, sim.Options{}, EngineOptions{Backend: BackendAnalytic}); err == nil {
		t.Error("ExactCycles accepted the analytic backend")
	}
}

// TestCyclesRecordRemotePoints: a point a cluster worker served, once
// checkPoint accepted it, is recorded like a local one, so ExactCycles
// answers it with neither a simulation nor a remote call.
func TestCyclesRecordRemotePoints(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	ctx, s := context.Background(), tinyMultiprog(44)
	var served atomic.Int64
	remote := func(_ context.Context, w Workload, spec PointSpec) (*Point, error) {
		served.Add(1)
		// A worker's own simulation, which records nothing here.
		return exactPoint(w, PointConfig(w, spec.PPC, spec.SCCBytes, sysmodel.Axes{}), s, sim.Options{}, nil, nil, nil)
	}
	grid, err := Sweep(ctx, Multiprog, s, sim.Options{}, EngineOptions{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	if n := served.Load(); n != int64(len(GridSpecs())) {
		t.Fatalf("the worker served %d points, want %d", n, len(GridSpecs()))
	}
	var cfgs []sysmodel.Config
	for _, sp := range GridSpecs() {
		cfgs = append(cfgs, PointConfig(Multiprog, sp.PPC, sp.SCCBytes, sysmodel.Axes{}))
	}
	ran := 0
	eng := countingEngine(&ran)
	eng.Remote = func(context.Context, Workload, PointSpec) (*Point, error) {
		t.Error("a recorded point was offered to the worker")
		return nil, errors.New("unexpected remote call")
	}
	got, err := ExactCycles(ctx, Multiprog, cfgs, s, sim.Options{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("ExactCycles ran %d points the worker had served, want 0", ran)
	}
	for i, cfg := range cfgs {
		if want := grid.At(cfg.SCCBytes, cfg.ProcsPerCluster).Result.Cycles; got[i] != want {
			t.Errorf("%s: %d cycles recorded, the worker's point has %d", cfg, got[i], want)
		}
	}
}

// TestExactCyclesConcurrentWithSweep: ExactCycles calls racing a sweep
// of the same trace each get the sweep's cycles, whichever of them
// simulates or records a point first. Run under -race by make race-obs.
func TestExactCyclesConcurrentWithSweep(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	ctx, s := context.Background(), tinyMultiprog(43)
	var cfgs []sysmodel.Config
	for i, sp := range GridSpecs() {
		if i%3 == 0 {
			cfgs = append(cfgs, PointConfig(Multiprog, sp.PPC, sp.SCCBytes, sysmodel.Axes{}))
		}
	}
	eng := EngineOptions{Parallelism: 2}
	var (
		wg   sync.WaitGroup
		grid *Grid
		got  = make([][]uint64, 3)
		errs = make([]error, len(got)+1)
	)
	wg.Add(len(errs))
	go func() {
		defer wg.Done()
		grid, errs[len(got)] = Sweep(ctx, Multiprog, s, sim.Options{}, eng)
	}()
	for i := range got {
		go func() {
			defer wg.Done()
			got[i], errs[i] = ExactCycles(ctx, Multiprog, cfgs, s, sim.Options{}, eng)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range got {
		for j, cfg := range cfgs {
			if want := grid.At(cfg.SCCBytes, cfg.ProcsPerCluster).Result.Cycles; c[j] != want {
				t.Errorf("call %d: %s got %d cycles, the sweep %d", i, cfg, c[j], want)
			}
		}
	}
}
