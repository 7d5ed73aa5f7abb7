package sccsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"sccsim"
	"sccsim/internal/trace"
)

// TestDoMatchesRun: a single point run by Do is byte-identical to the
// same cell of a SweepCtx grid, on both backends.
func TestDoMatchesRun(t *testing.T) {
	s := sccsim.WithScale(sccsim.QuickScale())
	for _, b := range []sccsim.Backend{sccsim.BackendExact, sccsim.BackendAnalytic} {
		grid, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut, s, sccsim.WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		pt, err := sccsim.Do(context.Background(), sccsim.BarnesHut, s, sccsim.WithBackend(b),
			sccsim.WithPoint(2, 32*1024))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(pt)
		want, _ := json.Marshal(grid.At(32*1024, 2))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Do point differs from the sweep cell", b)
		}
	}
}

// countingStore is a trace store that never hits, counting lookups.
type countingStore struct{ loads atomic.Int64 }

func (s *countingStore) Load(string) (*trace.Program, error) { s.loads.Add(1); return nil, nil }
func (s *countingStore) Store(string, *trace.Program) error  { return nil }

// TestDoReachesTraceStoreAndMetrics: every Do path — exact or analytic,
// WithPoint or WithConfig — resolves its trace through the persistent
// store once and reports to the metrics registry, like a sweep point.
func TestDoReachesTraceStoreAndMetrics(t *testing.T) {
	t.Cleanup(sccsim.ResetTraceCache)
	for _, b := range []sccsim.Backend{sccsim.BackendExact, sccsim.BackendAnalytic} {
		for name, point := range map[string]sccsim.Opt{
			"WithPoint":  sccsim.WithPoint(2, 32*1024),
			"WithConfig": sccsim.WithConfig(sccsim.DefaultConfig(2, 32*1024)),
		} {
			sccsim.ResetTraceCache()
			st := &countingStore{}
			reg := sccsim.NewMetrics()
			if _, err := sccsim.Do(context.Background(), sccsim.MP3D, point, sccsim.WithBackend(b),
				sccsim.WithScale(sccsim.QuickScale()), sccsim.WithTraceStore(st), sccsim.WithMetrics(reg)); err != nil {
				t.Fatal(err)
			}
			if n := st.loads.Load(); n != 1 {
				t.Errorf("%s %s: %d store loads, want 1", b, name, n)
			}
			for _, c := range []string{"explorer.points_done", "explorer.trace_cache_misses"} {
				if n := reg.Counter(c).Value(); n != 1 {
					t.Errorf("%s %s: %s = %d, want 1", b, name, c, n)
				}
			}
		}
	}
}

func TestDoDefaultPoint(t *testing.T) {
	pt, err := sccsim.Do(context.Background(), sccsim.BarnesHut,
		sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	// The default design point is the paper's 1P/64KB baseline.
	if pt.Config.ProcsPerCluster != 1 || pt.Config.SCCBytes != 64*1024 || pt.Config.Clusters != 4 {
		t.Errorf("default point = %v", pt.Config)
	}
}

func TestDoWithConfig(t *testing.T) {
	cfg := sccsim.DefaultConfig(2, 32*1024)
	cfg.Assoc = 2
	pt, err := sccsim.Do(context.Background(), sccsim.BarnesHut,
		sccsim.WithConfig(cfg), sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Config.Assoc != 2 {
		t.Errorf("associativity not preserved: %v", pt.Config)
	}
	// An explicit Config is a parallel-workload feature.
	if _, err := sccsim.Do(context.Background(), sccsim.Multiprog,
		sccsim.WithConfig(cfg), sccsim.WithScale(sccsim.QuickScale())); err == nil {
		t.Error("Do accepted WithConfig for the multiprogramming workload")
	}
}

// TestDoRejectsMachinesBeyondSimulatorLimits: a design point the
// simulator cannot run — 4 x 128 = 512 processors, past the scheduler's
// 256, or 12 banks per SCC, not a power of two — is an error from Do
// before any trace is generated, not a panic in an engine goroutine or
// a failure mid-run.
func TestDoRejectsMachinesBeyondSimulatorLimits(t *testing.T) {
	for _, ppc := range []int{128, 3} {
		_, err := sccsim.Do(context.Background(), sccsim.MP3D,
			sccsim.WithScale(sccsim.QuickScale()), sccsim.WithPoint(ppc, 64<<10))
		if err == nil {
			t.Errorf("Do accepted %d processors per cluster", ppc)
		}
	}
}

// TestSweepCtxMatchesSweepWithProgress: a two-worker sweep with a
// progress hook renders the same table as a one-worker sweep, with one
// event per point.
func TestSweepCtxMatchesSweepWithProgress(t *testing.T) {
	s := sccsim.QuickScale()
	old, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut,
		sccsim.WithScale(s), sccsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var events int
	grid, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut,
		sccsim.WithScale(s), sccsim.WithParallelism(2),
		sccsim.WithProgress(func(p sccsim.Progress) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sccsim.SpeedupTable(grid), sccsim.SpeedupTable(old); got != want {
		t.Errorf("two-worker table diverged from one-worker:\n%s\nvs\n%s", got, want)
	}
	if want := len(sccsim.SCCSizes) * len(sccsim.ProcsPerClusterSweep); events != want {
		t.Errorf("progress events = %d, want %d", events, want)
	}
}

func TestSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sccsim.SweepCtx(ctx, sccsim.MP3D, sccsim.WithScale(sccsim.QuickScale()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBuildCostPerfEntryCtx(t *testing.T) {
	// Each entry starts from a reset, so both simulate their points
	// instead of reading recorded cycles.
	t.Cleanup(sccsim.ResetTraceCache)
	s := sccsim.QuickScale()
	sccsim.ResetTraceCache()
	reg := sccsim.NewMetrics()
	e, err := sccsim.BuildCostPerfEntryCtx(context.Background(), sccsim.Cholesky,
		sccsim.WithScale(s), sccsim.WithParallelism(2), sccsim.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	// The points it simulated feed the simulator's stall histograms, as
	// a sweep's do.
	snap := reg.Snapshot()
	for _, h := range []string{"sim.read_miss_cycles", "sim.bank_wait_cycles", "sim.wb_stall_cycles"} {
		if _, ok := snap[h]; !ok {
			t.Errorf("cost/performance entry under WithMetrics published no %s", h)
		}
	}
	sccsim.ResetTraceCache()
	serial, err := sccsim.BuildCostPerfEntryCtx(context.Background(), sccsim.Cholesky,
		sccsim.WithScale(s), sccsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for ppc, raw := range serial.RawCycles {
		if e.RawCycles[ppc] != raw {
			t.Errorf("%dP: parallel entry %d cycles, serial %d", ppc, e.RawCycles[ppc], raw)
		}
	}
}
