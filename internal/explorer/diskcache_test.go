// In-package tests for the persistent trace cache: the warm-run
// guarantee (a second sweep against the same cache directory generates
// nothing) and the multiprog process-set <-> program container mapping.
package explorer

import (
	"context"
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sim"
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

	p1, src, err := cachedParallelProgram(MP3D, 4, s, dc)
	if err != nil {
		t.Fatal(err)
	}
	if src != traceGenerated {
		t.Fatalf("first lookup src = %d, want traceGenerated", src)
	}
	p2, src, err := cachedParallelProgram(MP3D, 4, s, dc)
	if err != nil || src != traceShared || p2 != p1 {
		t.Fatalf("repeat lookup: src=%d err=%v shared=%v, want traceShared of same program",
			src, err, p2 == p1)
	}

	ResetTraceCache()
	p3, src, err := cachedParallelProgram(MP3D, 4, s, dc)
	if err != nil {
		t.Fatal(err)
	}
	if src != traceFromDisk {
		t.Fatalf("post-reset lookup src = %d, want traceFromDisk", src)
	}
	if p3.Name != p1.Name || p3.Procs != p1.Procs || !reflect.DeepEqual(p3.Phases, p1.Phases) {
		t.Fatal("disk-loaded program differs from generated program")
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
	back, err := programToProcesses(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pset) {
		t.Fatalf("got %d processes, want %d", len(back), len(pset))
	}
	for i := range pset {
		if back[i].Name != pset[i].Name || !reflect.DeepEqual(back[i].Refs, pset[i].Refs) {
			t.Errorf("process %d changed in round trip", i)
		}
	}
	if _, err := programToProcesses(&trace.Program{Name: "x", Procs: 2}); err == nil {
		t.Fatal("multi-processor program accepted as a multiprog container")
	}
}
