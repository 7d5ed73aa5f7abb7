// External test package so the engine's output can be rendered through
// internal/report (which imports explorer) and compared byte-for-byte
// across worker-pool sizes.
package explorer_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/obs"
	"sccsim/internal/report"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

// sweep runs the grid on the default backend, failing the test on error.
func sweep(t *testing.T, w explorer.Workload, s explorer.Scale, eng explorer.EngineOptions) *explorer.Grid {
	t.Helper()
	g, err := explorer.Sweep(context.Background(), w, s, sim.Options{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSweepParallelCtxByteIdentical is the engine's determinism
// guarantee: for QuickScale Barnes-Hut, a four-worker sweep renders
// byte-identical tables to a one-worker sweep, and the progress hook
// reports every point exactly once.
func TestSweepParallelCtxByteIdentical(t *testing.T) {
	s := explorer.QuickScale()
	serial := sweep(t, explorer.BarnesHut, s, explorer.EngineOptions{Parallelism: 1})

	var events []explorer.Progress
	par := sweep(t, explorer.BarnesHut, s, explorer.EngineOptions{Parallelism: 4, Progress: func(p explorer.Progress) {
		events = append(events, p)
	}})

	if got, want := report.SpeedupTable(par), report.SpeedupTable(serial); got != want {
		t.Errorf("SpeedupTable diverged:\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if got, want := report.MissRateTable(par), report.MissRateTable(serial); got != want {
		t.Errorf("MissRateTable diverged:\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if got, want := report.GridCSV(par), report.GridCSV(serial); got != want {
		t.Error("GridCSV diverged")
	}

	total := len(par.Sizes()) * len(par.Procs())
	if len(events) != total {
		t.Fatalf("progress events = %d, want %d", len(events), total)
	}
	var lastElapsed int64
	for i, e := range events {
		if e.Done != i+1 || e.Total != total {
			t.Errorf("event %d: Done/Total = %d/%d, want %d/%d", i, e.Done, e.Total, i+1, total)
		}
		if e.Workload != explorer.BarnesHut {
			t.Errorf("event %d: workload = %s", i, e.Workload)
		}
		if int64(e.Elapsed) < lastElapsed {
			t.Errorf("event %d: elapsed went backwards (%v)", i, e.Elapsed)
		}
		lastElapsed = int64(e.Elapsed)
		if e.PointTime < 0 {
			t.Errorf("event %d: negative point time", i)
		}
	}
}

// TestSweepMultiprogCtxByteIdentical checks the multiprogramming sweep
// the same way, at a reduced reference budget to keep the 32 points
// cheap.
func TestSweepMultiprogCtxByteIdentical(t *testing.T) {
	s := explorer.Scale{MultiprogRefs: 20_000, Seed: 1}
	serial := sweep(t, explorer.Multiprog, s, explorer.EngineOptions{Parallelism: 1})
	var events int
	par := sweep(t, explorer.Multiprog, s, explorer.EngineOptions{Parallelism: 4,
		Progress: func(explorer.Progress) { events++ }})
	if got, want := report.GridCSV(par), report.GridCSV(serial); got != want {
		t.Errorf("multiprog GridCSV diverged:\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if total := len(par.Sizes()) * len(par.Procs()); events != total {
		t.Errorf("progress events = %d, want %d", events, total)
	}
}

// TestSweepTelemetryAndTraceCache: a multiprogramming sweep shares one
// generated trace — the SweepReport must show exactly one cache miss
// (the generation) and a hit for every other point — and the report's
// timings must be internally consistent.
func TestSweepTelemetryAndTraceCache(t *testing.T) {
	explorer.ResetTraceCache()
	s := explorer.Scale{MultiprogRefs: 20_000, Seed: 1}
	var rep *explorer.SweepReport
	var lastProgress explorer.Progress
	g, err := explorer.Sweep(context.Background(), explorer.Multiprog, s, sim.Options{},
		explorer.EngineOptions{
			Parallelism: 4,
			Report:      func(r explorer.SweepReport) { rep = &r },
			Progress:    func(p explorer.Progress) { lastProgress = p },
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("Report hook was not called")
	}
	total := len(g.Sizes()) * len(g.Procs())
	if rep.Points != total {
		t.Errorf("report points = %d, want %d", rep.Points, total)
	}
	if rep.TraceMisses != 1 {
		t.Errorf("trace-cache misses = %d, want exactly 1 (each trace generated once)", rep.TraceMisses)
	}
	if rep.TraceHits != uint64(total-1) {
		t.Errorf("trace-cache hits = %d, want %d", rep.TraceHits, total-1)
	}
	if lastProgress.TraceHits+lastProgress.TraceMisses != uint64(total) {
		t.Errorf("final progress event counted %d+%d cache lookups, want %d",
			lastProgress.TraceHits, lastProgress.TraceMisses, total)
	}
	if rep.Workers != 4 {
		t.Errorf("report workers = %d, want 4", rep.Workers)
	}
	if len(rep.PointWall) != total || len(rep.QueueWait) != total {
		t.Fatalf("per-point slices = %d/%d entries, want %d",
			len(rep.PointWall), len(rep.QueueWait), total)
	}
	var busy int64
	for _, d := range rep.PointWall {
		if d <= 0 {
			t.Error("a completed point has zero wall time")
		}
		busy += int64(d)
	}
	if int64(rep.Busy) != busy {
		t.Errorf("Busy = %v, sum of PointWall = %v", rep.Busy, busy)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1.0001 {
		t.Errorf("Utilization = %v, want in (0, 1]", rep.Utilization)
	}
	if rep.Wall <= 0 {
		t.Error("Wall not recorded")
	}
}

// TestSweepEngineMetrics: a registry handed to the engine records the
// points-done counter and per-point timing histogram.
func TestSweepEngineMetrics(t *testing.T) {
	explorer.ResetTraceCache()
	reg := obs.NewRegistry()
	s := explorer.Scale{MultiprogRefs: 20_000, Seed: 1}
	g, err := explorer.Sweep(context.Background(), explorer.Multiprog, s, sim.Options{},
		explorer.EngineOptions{Parallelism: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(g.Sizes()) * len(g.Procs()))
	if got := reg.Counter("explorer.points_done").Value(); got != total {
		t.Errorf("points_done = %d, want %d", got, total)
	}
	if got := reg.Counter("explorer.trace_cache_misses").Value(); got != 1 {
		t.Errorf("trace_cache_misses = %d, want 1", got)
	}
	if got := reg.Counter("explorer.trace_cache_hits").Value(); got != total-1 {
		t.Errorf("trace_cache_hits = %d, want %d", got, total-1)
	}
}

func TestSweepCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := explorer.Sweep(ctx, explorer.BarnesHut, explorer.QuickScale(), sim.Options{},
		explorer.EngineOptions{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepCtxFirstError: a failing design point cancels the rest of the
// sweep and its error — not the secondary cancellation — is returned.
func TestSweepCtxFirstError(t *testing.T) {
	_, err := explorer.Sweep(context.Background(), explorer.Workload("no-such-workload"),
		explorer.QuickScale(), sim.Options{}, explorer.EngineOptions{Parallelism: 4})
	if err == nil {
		t.Fatal("sweep of an unknown workload succeeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("first-error propagation returned the cancellation, not the cause: %v", err)
	}
}

// TestRunPointsCtxMatchesRunPoint: a batch of points (with its trace
// cache) returns, in input order and at any parallelism, exactly the
// points of the same cells of the sweep grid, for both parallel and
// multiprogramming workloads.
func TestRunPointsCtxMatchesRunPoint(t *testing.T) {
	s := explorer.QuickScale()
	specs := []explorer.PointSpec{{PPC: 2, SCCBytes: 32 * 1024}, {PPC: 1, SCCBytes: 64 * 1024}, {PPC: 8, SCCBytes: 4 * 1024}}
	for _, w := range []explorer.Workload{explorer.BarnesHut, explorer.Multiprog} {
		g := sweep(t, w, s, explorer.EngineOptions{Parallelism: 1})
		cfgs := make([]sysmodel.Config, len(specs))
		for i, sp := range specs {
			cfgs[i] = explorer.PointConfig(w, sp.PPC, sp.SCCBytes, sysmodel.Axes{})
		}
		var events int
		pts, err := explorer.RunConfigs(context.Background(), w, cfgs, s, sim.Options{},
			explorer.EngineOptions{Parallelism: 4, Progress: func(explorer.Progress) { events++ }})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if events != len(specs) {
			t.Errorf("%s: progress events = %d, want %d", w, events, len(specs))
		}
		for i, sp := range specs {
			got, _ := json.Marshal(pts[i])
			want, _ := json.Marshal(g.At(sp.SCCBytes, sp.PPC))
			if string(got) != string(want) {
				t.Errorf("%s %dP/%dKB: batch point differs from the sweep cell", w, sp.PPC, sp.SCCBytes/1024)
			}
		}
	}
}

// TestRunConfigsBackendDispatch: EngineOptions.Backend selects the
// backend; the analytic backend rejects configurations it cannot model
// before running anything, and an unknown backend is an error.
func TestRunConfigsBackendDispatch(t *testing.T) {
	s := explorer.QuickScale()
	private := []sysmodel.Config{explorer.PointConfig(explorer.MP3D, 2, 32*1024, sysmodel.Axes{Hierarchy: sysmodel.HierarchyPrivate})}
	ran := false
	_, err := explorer.RunConfigs(context.Background(), explorer.MP3D, private, s, sim.Options{},
		explorer.EngineOptions{Backend: explorer.BackendAnalytic, Progress: func(explorer.Progress) { ran = true }})
	if err == nil || ran {
		t.Errorf("analytic private-hierarchy point: err = %v, ran = %v; want an error before any work", err, ran)
	}
	if _, err := explorer.RunConfigs(context.Background(), explorer.MP3D, private, s, sim.Options{},
		explorer.EngineOptions{Backend: "warp"}); err == nil {
		t.Error("unknown backend accepted")
	}
	cfgs := []sysmodel.Config{explorer.PointConfig(explorer.MP3D, 2, 32*1024, sysmodel.Axes{})}
	var rep explorer.SweepReport
	pts, err := explorer.RunConfigs(context.Background(), explorer.MP3D, cfgs, s, sim.Options{},
		explorer.EngineOptions{Backend: explorer.BackendAnalytic, Report: func(r explorer.SweepReport) { rep = r }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != explorer.BackendAnalytic || pts[0].Result.Snoop.Invalidations != 0 {
		t.Errorf("analytic batch: report backend %q, %d invalidations; want a prediction",
			rep.Backend, pts[0].Result.Snoop.Invalidations)
	}
}

func TestGridAccessors(t *testing.T) {
	g := &explorer.Grid{Workload: explorer.BarnesHut}
	sizes, procs := g.Sizes(), g.Procs()
	if len(sizes) != 8 || sizes[0] != 4*1024 || sizes[7] != 512*1024 {
		t.Errorf("Sizes() = %v", sizes)
	}
	if len(procs) != 4 || procs[0] != 1 || procs[3] != 8 {
		t.Errorf("Procs() = %v", procs)
	}
	// Accessors hand out copies; mutating them must not corrupt the axes.
	sizes[0], procs[0] = -1, -1
	if g.Sizes()[0] != 4*1024 || g.Procs()[0] != 1 {
		t.Error("accessor slices alias the sweep axes")
	}
}
