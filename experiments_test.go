package sccsim_test

import (
	"context"
	"testing"

	"sccsim"
)

// Paper-scale headline assertions: the claims EXPERIMENTS.md records,
// checked end-to-end at the paper's problem sizes. Run time is a few
// minutes; `go test -short` skips it.
func TestPaperHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale headline run in -short mode")
	}
	scale := sccsim.PaperScale()

	run := func(w sccsim.Workload, ppc, scc int) *sccsim.Point {
		t.Helper()
		pt, err := runPoint(w, ppc, scc, scale)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}

	t.Run("MP3DSpeedupEndpoints", func(t *testing.T) {
		// Paper: 8P self-relative speedup 3.8 at 4KB, 7.2 at 512KB.
		small := float64(run(sccsim.MP3D, 1, 4*1024).Result.Cycles) /
			float64(run(sccsim.MP3D, 8, 4*1024).Result.Cycles)
		big := float64(run(sccsim.MP3D, 1, 512*1024).Result.Cycles) /
			float64(run(sccsim.MP3D, 8, 512*1024).Result.Cycles)
		if small < 3.0 || small > 6.5 {
			t.Errorf("MP3D 8P speedup at 4KB = %.2f, paper 3.8 (accept 3.0-6.5)", small)
		}
		if big < 6.0 || big > 8.2 {
			t.Errorf("MP3D 8P speedup at 512KB = %.2f, paper 7.2 (accept 6.0-8.2)", big)
		}
		if small >= big {
			t.Errorf("interference inversion: 4KB speedup %.2f >= 512KB %.2f", small, big)
		}
	})

	t.Run("BarnesInterference", func(t *testing.T) {
		// Small SCCs must depress the 8P speedup relative to mid sizes.
		s4 := float64(run(sccsim.BarnesHut, 1, 4*1024).Result.Cycles) /
			float64(run(sccsim.BarnesHut, 8, 4*1024).Result.Cycles)
		s32 := float64(run(sccsim.BarnesHut, 1, 32*1024).Result.Cycles) /
			float64(run(sccsim.BarnesHut, 8, 32*1024).Result.Cycles)
		if s4 >= s32 {
			t.Errorf("Barnes 8P speedup at 4KB (%.2f) not below 32KB (%.2f)", s4, s32)
		}
	})

	t.Run("CholeskySaturates", func(t *testing.T) {
		// Paper: speedup capped near 3-3.5 regardless of size.
		for _, scc := range []int{4 * 1024, 512 * 1024} {
			sp := float64(run(sccsim.Cholesky, 1, scc).Result.Cycles) /
				float64(run(sccsim.Cholesky, 8, scc).Result.Cycles)
			if sp > 4.0 {
				t.Errorf("Cholesky 8P speedup at %dKB = %.2f, want saturation (< 4)", scc/1024, sp)
			}
			if sp < 1.8 {
				t.Errorf("Cholesky 8P speedup at %dKB = %.2f, want > 1.8", scc/1024, sp)
			}
		}
	})

	t.Run("MultiprogSpread", func(t *testing.T) {
		// Paper: ~4.1x execution-time spread at 8P between 4KB and 512KB.
		spread := float64(run(sccsim.Multiprog, 8, 4*1024).Result.Cycles) /
			float64(run(sccsim.Multiprog, 8, 512*1024).Result.Cycles)
		if spread < 2.5 {
			t.Errorf("multiprog 8P spread = %.2f, paper ~4.1 (accept >= 2.5)", spread)
		}
	})

	t.Run("Tables6And7", func(t *testing.T) {
		var entries []*sccsim.CostPerfEntry
		for _, w := range sccsim.AllWorkloads {
			e, err := sccsim.BuildCostPerfEntryCtx(context.Background(), w, sccsim.WithScale(scale))
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
		}
		sc := sccsim.CompareSingleChip(entries)
		for _, e := range sc.Entries {
			if e.AdjCycles[2] >= e.AdjCycles[1] {
				t.Errorf("%s: 2P/32KB not faster than 1P/64KB (the paper's headline)", e.Workload)
			}
		}
		if sc.CostPerfGain <= 0 {
			t.Errorf("single-chip cost/performance gain = %.2f, paper finds a win", sc.CostPerfGain)
		}
		m := sccsim.CompareMCM(entries)
		if m.MeanScalingNoCholesky < 1.5 {
			t.Errorf("16->32 scaling excl. Cholesky = %.2f, paper ~linear", m.MeanScalingNoCholesky)
		}
		var cholScaling float64
		for _, e := range m.Entries {
			if e.Workload == sccsim.Cholesky {
				cholScaling = e.AdjCycles[4] / e.AdjCycles[8]
			}
		}
		if cholScaling > 1.7 {
			t.Errorf("Cholesky 16->32 scaling = %.2f, paper says it is the exception (~1.2)", cholScaling)
		}
	})
}
