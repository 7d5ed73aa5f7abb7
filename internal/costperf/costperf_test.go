package costperf

import (
	"context"
	"math"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
)

func TestClusterConfigs(t *testing.T) {
	want := map[int]int{1: 64 * 1024, 2: 32 * 1024, 4: 64 * 1024, 8: 128 * 1024}
	got := ClusterConfigs()
	for ppc, scc := range want {
		if got[ppc] != scc {
			t.Errorf("ClusterConfigs()[%d] = %d, want %d", ppc, got[ppc], scc)
		}
	}
}

func TestAdjustedAppliesLatencyFactor(t *testing.T) {
	raw := uint64(1_000_000)
	a1 := Adjusted(explorer.BarnesHut, 1, raw) // latency 2: factor 1.0
	a2 := Adjusted(explorer.BarnesHut, 2, raw) // latency 3
	a8 := Adjusted(explorer.BarnesHut, 8, raw) // latency 4
	if a1 != float64(raw) {
		t.Errorf("latency-2 adjustment changed cycles: %v", a1)
	}
	if !(a2 > a1 && a8 > a2) {
		t.Errorf("adjustment not increasing with latency: %v %v %v", a1, a2, a8)
	}
	if math.Abs(a2/a1-1.06) > 0.02 {
		t.Errorf("latency-3 factor = %.3f, want ~1.06", a2/a1)
	}
}

func buildAll(t *testing.T) []*Entry {
	t.Helper()
	s := explorer.QuickScale()
	var entries []*Entry
	for _, w := range explorer.AllWorkloads {
		e, err := BuildEntryCtx(context.Background(), w, s, sim.Options{}, explorer.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	return entries
}

func TestTables6And7Headlines(t *testing.T) {
	entries := buildAll(t)
	for _, e := range entries {
		for _, ppc := range []int{1, 2, 4, 8} {
			if e.RawCycles[ppc] == 0 || e.AdjCycles[ppc] == 0 {
				t.Fatalf("%s: missing %dP entry", e.Workload, ppc)
			}
		}
		if e.Normalized(8) != 1.0 {
			t.Errorf("%s: Normalized(8) = %v, want 1", e.Workload, e.Normalized(8))
		}
	}

	sc := CompareSingleChip(entries)
	// Paper: 2P/32KB is faster than 1P/64KB on every benchmark despite
	// the extra load-latency cycle, ~1.7x on average, and wins on
	// cost/performance.
	for _, e := range sc.Entries {
		if e.AdjCycles[2] >= e.AdjCycles[1] {
			t.Errorf("%s: 2P/32KB (%.0f) not faster than 1P/64KB (%.0f)",
				e.Workload, e.AdjCycles[2], e.AdjCycles[1])
		}
	}
	if sc.MeanSpeedup <= 1.1 {
		t.Errorf("mean 2P speedup = %.2f, want > 1.1", sc.MeanSpeedup)
	}
	if math.Abs(sc.AreaRatio-1.37) > 0.03 {
		t.Errorf("area ratio = %.3f, paper 1.37", sc.AreaRatio)
	}
	if sc.CostPerfGain <= 0 {
		t.Errorf("cost/performance gain = %.2f, paper finds a win", sc.CostPerfGain)
	}

	m := CompareMCM(entries)
	// Paper: 16 -> 32 processors scales ~linearly except Cholesky.
	if m.MeanScalingNoCholesky < 1.4 {
		t.Errorf("non-Cholesky 16->32 scaling = %.2f, want near 2", m.MeanScalingNoCholesky)
	}
	if m.MeanScaling >= m.MeanScalingNoCholesky {
		t.Errorf("Cholesky (%.2f incl) should drag the mean below %.2f",
			m.MeanScaling, m.MeanScalingNoCholesky)
	}
}

func TestCompareEmptyEntries(t *testing.T) {
	sc := CompareSingleChip(nil)
	if sc.MeanSpeedup != 0 {
		t.Errorf("empty comparison speedup = %v", sc.MeanSpeedup)
	}
	m := CompareMCM(nil)
	if m.MeanScaling != 0 {
		t.Errorf("empty MCM scaling = %v", m.MeanScaling)
	}
}
