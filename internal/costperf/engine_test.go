package costperf

import (
	"context"
	"reflect"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
)

// TestBuildEntryCtxMatchesSerialPoints: building an entry on a
// four-worker engine yields exactly the cycles of the same cells of a
// one-worker sweep grid for each Section 4 implementation.
func TestBuildEntryCtxMatchesSerialPoints(t *testing.T) {
	// Cycles an earlier test recorded would be read, not simulated.
	explorer.ResetTraceCache()
	t.Cleanup(explorer.ResetTraceCache)
	s := explorer.QuickScale()
	e, err := BuildEntryCtx(context.Background(), explorer.BarnesHut, s, sim.Options{},
		explorer.EngineOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := explorer.Sweep(context.Background(), explorer.BarnesHut, s, sim.Options{},
		explorer.EngineOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ppc, scc := range ClusterConfigs() {
		cycles := g.At(scc, ppc).Result.Cycles
		if e.RawCycles[ppc] != cycles {
			t.Errorf("%dP: batch %d cycles, sweep %d", ppc, e.RawCycles[ppc], cycles)
		}
		if e.AdjCycles[ppc] != Adjusted(explorer.BarnesHut, ppc, cycles) {
			t.Errorf("%dP: adjusted cycles diverged", ppc)
		}
	}
}

// TestEntryAfterSweepRunsNoPoints: the grid sweep holds all four
// Section 4 implementation points, so an entry built after it runs none
// of them and equals the entry built cold.
func TestEntryAfterSweepRunsNoPoints(t *testing.T) {
	t.Cleanup(explorer.ResetTraceCache)
	ctx, s := context.Background(), explorer.QuickScale()
	ran := 0
	eng := explorer.EngineOptions{Progress: func(explorer.Progress) { ran++ }}
	explorer.ResetTraceCache()
	cold, err := BuildEntryCtx(ctx, explorer.MP3D, s, sim.Options{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Fatalf("a cold entry ran %d points, want 4", ran)
	}

	explorer.ResetTraceCache()
	if _, err := explorer.Sweep(ctx, explorer.MP3D, s, sim.Options{}, explorer.EngineOptions{}); err != nil {
		t.Fatal(err)
	}
	ran = 0
	warm, err := BuildEntryCtx(ctx, explorer.MP3D, s, sim.Options{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("an entry built after the grid sweep ran %d points, want 0", ran)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("entry after the sweep %+v, cold %+v", warm, cold)
	}
}
