// In-package tests for the persistent trace cache: the warm-run
// guarantee (a second sweep against the same cache directory generates
// nothing), the multiprog process-set <-> program container mapping,
// and stored entries of the wrong shape.
package explorer

import (
	"context"
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

func newTestDiskCache(t *testing.T) *trace.DiskCache {
	t.Helper()
	dc, err := trace.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// sweepWithReport runs one full grid sweep and returns its report.
func sweepWithReport(t *testing.T, w Workload, dc *trace.DiskCache) (*Grid, SweepReport) {
	t.Helper()
	var rep SweepReport
	g, err := Sweep(context.Background(), w, QuickScale(), sim.Options{},
		EngineOptions{TraceCache: dc, Report: func(r SweepReport) { rep = r }})
	if err != nil {
		t.Fatal(err)
	}
	return g, rep
}

func checkCounters(t *testing.T, phase string, rep SweepReport) {
	t.Helper()
	if rep.TraceDiskHits+rep.TraceGenerated != rep.TraceMisses {
		t.Errorf("%s: DiskHits(%d) + Generated(%d) != Misses(%d)",
			phase, rep.TraceDiskHits, rep.TraceGenerated, rep.TraceMisses)
	}
}

func testWarmDiskCacheSkipsGeneration(t *testing.T, w Workload) {
	dc := newTestDiskCache(t)
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)

	cold, coldRep := sweepWithReport(t, w, dc)
	checkCounters(t, "cold", coldRep)
	if coldRep.TraceGenerated == 0 {
		t.Fatal("cold sweep generated nothing — cache dir was not empty?")
	}
	if coldRep.TraceDiskHits != 0 {
		t.Fatalf("cold sweep hit the disk cache %d times", coldRep.TraceDiskHits)
	}

	// Drop the in-memory cache so the second sweep must go to disk —
	// this is what a fresh process with a warm -trace-cache dir does.
	ResetTraceCache()
	warm, warmRep := sweepWithReport(t, w, dc)
	checkCounters(t, "warm", warmRep)
	if warmRep.TraceGenerated != 0 {
		t.Fatalf("warm sweep ran %d generations, want 0", warmRep.TraceGenerated)
	}
	if warmRep.TraceDiskHits == 0 {
		t.Fatal("warm sweep never touched the disk cache")
	}
	if warmRep.TraceDiskHits != coldRep.TraceGenerated {
		t.Errorf("warm disk hits %d != cold generations %d — key mismatch between store and load",
			warmRep.TraceDiskHits, coldRep.TraceGenerated)
	}

	// Replaying a trace that went through the disk format must be
	// indistinguishable from replaying the generator's output.
	if !reflect.DeepEqual(cold.Points, warm.Points) {
		t.Fatal("warm-cache sweep results differ from cold sweep")
	}
}

func TestWarmDiskCacheParallel(t *testing.T)  { testWarmDiskCacheSkipsGeneration(t, BarnesHut) }
func TestWarmDiskCacheMultiprog(t *testing.T) { testWarmDiskCacheSkipsGeneration(t, Multiprog) }

// TestCachedParallelProgramSources pins the traceSource classification:
// first resolution generates, a repeat shares in memory, and a repeat
// after a memory reset loads from disk.
func TestCachedParallelProgramSources(t *testing.T) {
	dc := newTestDiskCache(t)
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	s := QuickScale()
	lookup := func() (*trace.Program, *traceCounters) {
		t.Helper()
		tc := &traceCounters{}
		p, _, err := traceFor(MP3D, 4, s, tc, dc)
		if err != nil {
			t.Fatal(err)
		}
		return p, tc
	}

	p1, tc := lookup()
	if tc.generated.Load() != 1 {
		t.Fatal("first lookup did not generate")
	}
	p2, tc := lookup()
	if tc.hits.Load() != 1 || p2 != p1 {
		t.Fatalf("repeat lookup: hit=%v shared=%v, want a hit on the same program", tc.hits.Load() == 1, p2 == p1)
	}

	ResetTraceCache()
	p3, tc := lookup()
	if tc.diskHits.Load() != 1 {
		t.Fatal("post-reset lookup did not load from disk")
	}
	if p3.Name != p1.Name || p3.Procs != p1.Procs || !reflect.DeepEqual(p3.Phases, p1.Phases) {
		t.Fatal("disk-loaded program differs from generated program")
	}
}

// TestTraceCacheHoldsManyKeys: the in-memory trace cache is bounded by
// bytes, not by a key count, so 40 small traces (more than the 32
// entries it once held) all stay resolved: a second round over them
// generates nothing and loads nothing, and the registry reports the
// bytes they are charged and no evictions.
func TestTraceCacheHoldsManyKeys(t *testing.T) {
	dc := newTestDiskCache(t)
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	const keys = 40
	reg := obs.NewRegistry()
	round := func() (*traceCounters, int64) {
		t.Helper()
		tc := &traceCounters{reg: reg}
		var charged int64
		for seed := int64(1); seed <= keys; seed++ {
			p, _, err := traceFor(Multiprog, 1, Scale{MultiprogRefs: 2000, Seed: seed}, tc, dc)
			if err != nil {
				t.Fatal(err)
			}
			charged += max(p.HeapBytes(), memoMinCharge)
		}
		return tc, charged
	}
	if tc, _ := round(); tc.generated.Load() != keys {
		t.Fatalf("first round generated %d traces, want %d", tc.generated.Load(), keys)
	}
	tc, charged := round()
	if hits, misses, _, _ := tc.loads(); hits != keys || misses != 0 {
		t.Fatalf("second round: %d hits, %d misses (%d loaded from disk, %d generated); want %d hits only",
			hits, misses, tc.diskHits.Load(), tc.generated.Load(), keys)
	}
	if got := reg.Gauge("explorer.trace_cache_bytes").Value(); got != charged {
		t.Errorf("explorer.trace_cache_bytes = %d, want %d", got, charged)
	}
	if got := reg.Counter("explorer.trace_cache_evictions").Value(); got != 0 {
		t.Errorf("explorer.trace_cache_evictions = %d, want 0", got)
	}
}

func TestMultiprogProgramContainerRoundTrip(t *testing.T) {
	pset := []sim.Process{
		{Name: "compress", Refs: []mem.Ref{
			{Addr: 0x1000, Kind: mem.Read, Gap: 2},
			{Addr: 0x1040, Kind: mem.Write},
		}},
		{Name: "espresso", Refs: []mem.Ref{
			{Addr: 0x2000, Kind: mem.Read},
		}},
	}
	p := processesToProgram(pset)
	if err := p.Validate(); err != nil {
		t.Fatalf("container program invalid: %v", err)
	}
	back := programToProcesses(p)
	if len(back) != len(pset) {
		t.Fatalf("got %d processes, want %d", len(back), len(pset))
	}
	for i := range pset {
		if back[i].Name != pset[i].Name || !reflect.DeepEqual(back[i].Refs, pset[i].Refs) {
			t.Errorf("process %d changed in round trip", i)
		}
	}
}

// fixedStore is a trace.Store that answers every key with one program.
type fixedStore struct{ prog *trace.Program }

func (f fixedStore) Load(string) (*trace.Program, error) { return f.prog, nil }
func (f fixedStore) Store(string, *trace.Program) error  { return nil }

// TestStoredTraceOfWrongShapeIsMiss: a stored program whose processor
// count is not its key's — an 8-processor MP3D program under the
// 16-processor key, or as the single-processor multiprog container — is
// a corrupt entry, so a miss. The trace is generated, and exact and
// analytic points come out exactly as they do without a store.
func TestStoredTraceOfWrongShapeIsMiss(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	s := QuickScale()
	wrong, err := GenerateParallel(MP3D, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range []Workload{MP3D, Multiprog} {
		cfg := PointConfig(w, 4, sysmodel.SCCSizes[0], sysmodel.Axes{})
		run := func(b Backend, dc trace.Store) (*Point, SweepReport) {
			t.Helper()
			var rep SweepReport
			pts, err := RunConfigs(ctx, w, []sysmodel.Config{cfg}, s, sim.Options{},
				EngineOptions{Backend: b, TraceCache: dc, Report: func(r SweepReport) { rep = r }})
			if err != nil {
				t.Fatalf("%s %s: %v", w, b, err)
			}
			return pts[0], rep
		}
		ResetTraceCache()
		want := map[Backend]*Point{}
		for _, b := range AllBackends {
			want[b], _ = run(b, nil)
		}
		ResetTraceCache()
		for i, b := range AllBackends {
			got, rep := run(b, fixedStore{wrong})
			if i == 0 && (rep.TraceGenerated != 1 || rep.TraceDiskHits != 0) {
				t.Errorf("%s: %d generated, %d from the store; want the wrong-shape entry to be a miss",
					w, rep.TraceGenerated, rep.TraceDiskHits)
			}
			if !reflect.DeepEqual(got, want[b]) {
				t.Errorf("%s %s: point over a wrong-shape stored trace differs from the generated trace's", w, b)
			}
		}
	}
}
