package explorer

import (
	"context"
	"testing"

	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

func TestGenerateParallelAllWorkloads(t *testing.T) {
	s := QuickScale()
	for _, w := range ParallelWorkloads {
		p, err := GenerateParallel(w, 4, s)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if p.Procs != 4 {
			t.Errorf("%s: procs = %d", w, p.Procs)
		}
		if p.Refs() == 0 {
			t.Errorf("%s: empty trace", w)
		}
	}
	if _, err := GenerateParallel(Multiprog, 4, s); err == nil {
		t.Error("GenerateParallel accepted the multiprogramming workload")
	}
}

func TestSweepParallelGrid(t *testing.T) {
	g, err := Sweep(context.Background(), BarnesHut, QuickScale(), sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != len(sysmodel.SCCSizes) {
		t.Fatalf("rows = %d", len(g.Points))
	}
	for si, size := range sysmodel.SCCSizes {
		for pi, ppc := range sysmodel.ProcsPerClusterSweep {
			pt := g.Points[si][pi]
			if pt == nil || pt.Result == nil {
				t.Fatalf("missing point %d/%d", si, pi)
			}
			if pt.Config.SCCBytes != size || pt.Config.ProcsPerCluster != ppc {
				t.Fatalf("misplaced point at %d/%d: %v", si, pi, pt.Config)
			}
			if pt.Result.Cycles == 0 {
				t.Fatalf("zero cycles at %v", pt.Config)
			}
		}
	}

	// Structural sanity on the quick grid: bigger caches never slower
	// at fixed ppc (allowing 2% noise), and At/Speedup agree.
	for _, ppc := range sysmodel.ProcsPerClusterSweep {
		prev := g.At(4*1024, ppc).Result.Cycles
		for _, size := range sysmodel.SCCSizes[1:] {
			cur := g.At(size, ppc).Result.Cycles
			if float64(cur) > 1.02*float64(prev) {
				t.Errorf("ppc=%d: %d KB slower than the next smaller size (%d vs %d)",
					ppc, size/1024, cur, prev)
			}
			prev = cur
		}
	}
	if s := g.Speedup(64*1024, 1); s != 1.0 {
		t.Errorf("self speedup = %v, want 1", s)
	}
	if g.Speedup(64*1024, 8) <= 1.0 {
		t.Error("8 procs/cluster not faster than 1 at 64KB")
	}
}

func TestNormalizedTimeBounds(t *testing.T) {
	g, err := Sweep(context.Background(), MP3D, QuickScale(), sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range sysmodel.SCCSizes {
		for _, ppc := range sysmodel.ProcsPerClusterSweep {
			v := g.NormalizedTime(size, ppc)
			if v <= 0 || v > 1 {
				t.Errorf("normalized time %v at %dKB/%dP", v, size/1024, ppc)
			}
		}
	}
}

func TestSweepMultiprog(t *testing.T) {
	s := QuickScale()
	g, err := Sweep(context.Background(), Multiprog, s, sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The headline: at 8 procs/cluster, 4 KB must be much slower than
	// 512 KB; the spread shrinks at 1 proc/cluster.
	spread8 := float64(g.At(4*1024, 8).Result.Cycles) / float64(g.At(512*1024, 8).Result.Cycles)
	spread1 := float64(g.At(4*1024, 1).Result.Cycles) / float64(g.At(512*1024, 1).Result.Cycles)
	if spread8 <= 1.2 {
		t.Errorf("8P interference spread = %.2f, want > 1.2", spread8)
	}
	if spread8 <= spread1 {
		t.Errorf("interference spread at 8P (%.2f) not larger than at 1P (%.2f)", spread8, spread1)
	}
}

// TestSweepDispatch: the multiprogramming grid runs every point on one
// cluster, the parallel workloads on four — the PointConfig rule.
func TestSweepDispatch(t *testing.T) {
	g, err := Sweep(context.Background(), Multiprog, QuickScale(), sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Workload != Multiprog {
		t.Errorf("workload = %s", g.Workload)
	}
	for _, row := range g.Points {
		for _, pt := range row {
			if pt.Config.Clusters != 1 {
				t.Fatalf("multiprog point %v not on one cluster", pt.Config)
			}
		}
	}
}

func TestPointConfig(t *testing.T) {
	if got, want := PointConfig(BarnesHut, 2, 32*1024, sysmodel.Axes{}), sysmodel.Default(2, 32*1024); got != want {
		t.Errorf("parallel point = %+v, want the paper's default %+v", got, want)
	}
	mp := PointConfig(Multiprog, 8, 4*1024, sysmodel.Axes{Assoc: 2})
	if mp.Clusters != 1 || mp.ProcsPerCluster != 8 || mp.LoadLatency != 4 || mp.Assoc != 2 {
		t.Errorf("multiprog point = %+v, want one 8P cluster, 4-cycle loads, 2-way", mp)
	}
}

func TestRunPoint(t *testing.T) {
	s := QuickScale()
	cfgs := []sysmodel.Config{PointConfig(BarnesHut, 2, 32*1024, sysmodel.Axes{})}
	pts, err := RunConfigs(context.Background(), BarnesHut, cfgs, s, sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pt := pts[0]; pt.Config.LoadLatency != 3 {
		t.Errorf("load latency = %d, want 3 for a 2P cluster", pt.Config.LoadLatency)
	}
	cfgs = []sysmodel.Config{PointConfig(Multiprog, 2, 32*1024, sysmodel.Axes{})}
	mp, err := RunConfigs(context.Background(), Multiprog, cfgs, s, sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mp[0].Result.Cycles == 0 {
		t.Error("multiprog point has zero cycles")
	}
}

func TestSeedSensitivity(t *testing.T) {
	s := QuickScale()
	sum, err := SeedSensitivity(BarnesHut, 2, 32*1024, s, sim.Options{}, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3 || sum.Mean <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	// Different Plummer draws change the tree, but the execution-time
	// variation should be modest (< 30% CV) — the design-space
	// conclusions do not hinge on one seed.
	if sum.CV > 0.30 {
		t.Errorf("seed CV = %.2f, suspiciously high", sum.CV)
	}
	if _, err := SeedSensitivity(BarnesHut, 2, 32*1024, s, sim.Options{}, nil); err == nil {
		t.Error("accepted empty seed list")
	}
}
