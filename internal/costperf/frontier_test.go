package costperf

import (
	"context"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

func frontierGrid(t *testing.T) []FrontierPoint {
	t.Helper()
	g, err := explorer.Sweep(context.Background(), explorer.BarnesHut, explorer.QuickScale(), sim.Options{},
		explorer.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return Frontier(g)
}

func TestFrontierCoversGrid(t *testing.T) {
	pts := frontierGrid(t)
	want := len(sysmodel.SCCSizes) * len(sysmodel.ProcsPerClusterSweep)
	if len(pts) != want {
		t.Fatalf("frontier has %d points, want %d", len(pts), want)
	}
	feasible := 0
	for _, p := range pts {
		if p.Feasible {
			feasible++
			if p.AdjCycles <= 0 || p.SystemMM2 <= 0 || p.CostPerf <= 0 {
				t.Errorf("feasible point %dP/%dKB has zero figures: %+v",
					p.ProcsPerCluster, p.SCCBytes/1024, p)
			}
		}
	}
	if feasible < 10 {
		t.Errorf("only %d feasible points; the sweep should be mostly buildable", feasible)
	}
	// Giant on-chip SCCs must be infeasible.
	for _, p := range pts {
		if p.ProcsPerCluster == 2 && p.SCCBytes == 512*1024 && p.Feasible {
			t.Error("2P/512KB marked feasible")
		}
	}
}

func TestBestAndPareto(t *testing.T) {
	pts := frontierGrid(t)
	best := Best(pts)
	if best == nil {
		t.Fatal("no best point")
	}
	if !best.Feasible {
		t.Fatal("best point infeasible")
	}
	front := ParetoFront(pts)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// The front is sorted by area and strictly improving in performance.
	for i := 1; i < len(front); i++ {
		if front[i].SystemMM2 < front[i-1].SystemMM2 {
			t.Error("front not sorted by area")
		}
		if front[i].Perf < front[i-1].Perf {
			t.Error("front not improving in performance")
		}
	}
	// The best cost/perf point must be on the front... not necessarily
	// (cost/perf is a ratio, the front is dominance) — but it must not
	// be dominated.
	for _, q := range pts {
		if q.Feasible && q.Perf > best.Perf && q.SystemMM2 <= q.SystemMM2 && q.CostPerf > best.CostPerf {
			t.Error("best point dominated in cost/perf")
		}
	}
}

func TestBestEmpty(t *testing.T) {
	if Best(nil) != nil {
		t.Error("Best(nil) != nil")
	}
	if Best([]FrontierPoint{{Feasible: false}}) != nil {
		t.Error("Best of infeasible points != nil")
	}
}
