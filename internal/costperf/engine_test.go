package costperf

import (
	"context"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
)

// TestBuildEntryCtxMatchesSerialPoints: building an entry on a
// four-worker engine yields exactly the cycles of the same cells of a
// one-worker sweep grid for each Section 4 implementation.
func TestBuildEntryCtxMatchesSerialPoints(t *testing.T) {
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
