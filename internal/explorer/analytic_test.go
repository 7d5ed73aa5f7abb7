package explorer

import (
	"context"
	"strings"
	"testing"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

// TestParseBackend: every listed backend round-trips; unknown names get
// an actionable error naming the valid values.
func TestParseBackend(t *testing.T) {
	for _, b := range AllBackends {
		got, err := ParseBackend(string(b))
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b, got, err)
		}
	}
	_, err := ParseBackend("simulated")
	if err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
	for _, b := range AllBackends {
		if !strings.Contains(err.Error(), string(b)) {
			t.Errorf("ParseBackend error %q does not list %q", err, b)
		}
	}
}

// TestSweepAnalyticGrid: the analytic sweep fills the same grid shape
// as the exact one, with sane, monotone predictions, and stamps its
// report with the analytic backend.
func TestSweepAnalyticGrid(t *testing.T) {
	s := QuickScale()
	var rep SweepReport
	eng := EngineOptions{Backend: BackendAnalytic, Report: func(r SweepReport) { rep = r }}
	g, err := Sweep(context.Background(), BarnesHut, s, sim.Options{}, eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != len(sysmodel.SCCSizes) || len(g.Points[0]) != len(sysmodel.ProcsPerClusterSweep) {
		t.Fatalf("grid shape %dx%d", len(g.Points), len(g.Points[0]))
	}
	if rep.Backend != BackendAnalytic {
		t.Errorf("report backend %q, want %q", rep.Backend, BackendAnalytic)
	}
	if rep.Points != len(sysmodel.SCCSizes)*len(sysmodel.ProcsPerClusterSweep) {
		t.Errorf("report counts %d points", rep.Points)
	}
	// Each distinct processor count resolves its trace exactly once.
	if rep.TraceMisses != uint64(len(sysmodel.ProcsPerClusterSweep)) {
		t.Errorf("trace misses %d, want %d", rep.TraceMisses, len(sysmodel.ProcsPerClusterSweep))
	}
	for _, row := range g.Points {
		for _, pt := range row {
			r := pt.Result
			if r.Cycles == 0 || r.Refs == 0 {
				t.Fatalf("empty analytic result at %v", pt.Config)
			}
			if mr := r.ReadMissRate(); mr <= 0 || mr >= 1 {
				t.Errorf("implausible miss rate %.4f at %v", mr, pt.Config)
			}
			if r.Snoop == nil || len(r.SCC) != pt.Config.Clusters {
				t.Errorf("analytic result at %v not fully shaped", pt.Config)
			}
		}
	}
	// Down a column (growing cache, fixed ppc) predicted miss rates
	// cannot rise.
	for pi := range sysmodel.ProcsPerClusterSweep {
		for si := 1; si < len(sysmodel.SCCSizes); si++ {
			prev := g.Points[si-1][pi].Result.ReadMissRate()
			cur := g.Points[si][pi].Result.ReadMissRate()
			if cur > prev+1e-9 {
				t.Errorf("ppc=%d: miss rate rose %.5f -> %.5f at %d bytes",
					sysmodel.ProcsPerClusterSweep[pi], prev, cur, sysmodel.SCCSizes[si])
			}
		}
	}
}

// TestSweepAnalyticDeterministic: repeated analytic sweeps (warm
// caches, any parallelism) produce identical grids.
func TestSweepAnalyticDeterministic(t *testing.T) {
	s := QuickScale()
	a, err := Sweep(context.Background(), MP3D, s, sim.Options{}, EngineOptions{Backend: BackendAnalytic, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), MP3D, s, sim.Options{}, EngineOptions{Backend: BackendAnalytic, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Points {
		for pi := range a.Points[si] {
			ra, rb := a.Points[si][pi].Result, b.Points[si][pi].Result
			if ra.Cycles != rb.Cycles || ra.ReadMissRate() != rb.ReadMissRate() {
				t.Fatalf("analytic sweep not deterministic at %v: %d/%.5f vs %d/%.5f",
					a.Points[si][pi].Config, ra.Cycles, ra.ReadMissRate(), rb.Cycles, rb.ReadMissRate())
			}
		}
	}
}

// TestSweepAnalyticMultiprog: the multiprogramming grid runs on the
// scheduled-profile path — single cluster, scheduling slots = ppc.
func TestSweepAnalyticMultiprog(t *testing.T) {
	s := QuickScale()
	g, err := Sweep(context.Background(), Multiprog, s, sim.Options{}, EngineOptions{Backend: BackendAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range g.Points {
		for _, pt := range row {
			if pt.Config.Clusters != 1 {
				t.Fatalf("multiprog point on %d clusters", pt.Config.Clusters)
			}
			if pt.Result.Cycles == 0 || pt.Result.ReadMissRate() <= 0 {
				t.Fatalf("empty multiprog prediction at %v", pt.Config)
			}
		}
	}
}

// TestAnalyticMultiprogNeedsOneCluster: the scheduled profile has one
// cluster, so an analytic multiprogramming point on more than one is
// refused before any work instead of panicking in an engine worker; the
// exact backend still runs it.
func TestAnalyticMultiprogNeedsOneCluster(t *testing.T) {
	cfg := sysmodel.Default(2, 16384)
	if cfg.Clusters < 2 {
		t.Fatalf("default config has %d clusters, want several", cfg.Clusters)
	}
	s := QuickScale()
	_, err := RunConfigs(context.Background(), Multiprog, []sysmodel.Config{cfg}, s, sim.Options{},
		EngineOptions{Backend: BackendAnalytic})
	if err == nil || !strings.Contains(err.Error(), "one cluster") {
		t.Fatalf("analytic multiprog on %d clusters: err = %v, want the one-cluster rule", cfg.Clusters, err)
	}
	pts, err := RunConfigs(context.Background(), Multiprog, []sysmodel.Config{cfg}, s, sim.Options{}, EngineOptions{})
	if err != nil {
		t.Fatalf("exact multiprog on %d clusters: %v", cfg.Clusters, err)
	}
	if pts[0].Result.Refs == 0 {
		t.Fatal("exact multiprog point ran no references")
	}
}

// TestRunPointAnalytic: single points agree with the corresponding
// sweep cell (shared profile, same prediction).
func TestRunPointAnalytic(t *testing.T) {
	s := QuickScale()
	g, err := Sweep(context.Background(), Cholesky, s, sim.Options{}, EngineOptions{Backend: BackendAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunConfigs(context.Background(), Cholesky, []sysmodel.Config{PointConfig(Cholesky, 2, 32*1024, sysmodel.Axes{})},
		s, sim.Options{}, EngineOptions{Backend: BackendAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	want := g.At(32*1024, 2)
	if want == nil {
		t.Fatal("grid misses the 2P/32KB cell")
	}
	if pt.Result.Cycles != want.Result.Cycles || pt.Result.ReadMissRate() != want.Result.ReadMissRate() {
		t.Errorf("point %d/%.5f differs from sweep cell %d/%.5f",
			pt.Result.Cycles, pt.Result.ReadMissRate(), want.Result.Cycles, want.Result.ReadMissRate())
	}
}

// TestCompareBackends: the one exact/analytic pairing behind the
// facade's CrossValidate and the service's live gauges pairs the grids
// point by point, publishes the error summary, and refuses grids of
// different shapes instead of pairing a prefix.
func TestCompareBackends(t *testing.T) {
	point := func(reads, misses, cycles uint64) *Point {
		var st cache.Stats
		st.Accesses[mem.Read], st.Misses[mem.Read] = reads, misses
		return &Point{Config: PointConfig(MP3D, 1, 4096, sysmodel.Axes{}),
			Result: &sim.Result{Cycles: cycles, SCC: []*cache.Stats{&st}}}
	}
	exact := &Grid{Workload: MP3D, Points: [][]*Point{{point(100, 40, 1000), point(100, 10, 800)}}}
	analytic := &Grid{Workload: MP3D, Points: [][]*Point{{point(100, 20, 1200), point(100, 10, 800)}}}
	reg := obs.NewRegistry()
	rep, err := CompareBackends(MP3D, exact, analytic, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 || rep.MaxAbsErr != 0.2 || rep.MaxCycleRelErr != 0.2 {
		t.Fatalf("report = %+v, want 2 points, max abs err 0.2, max cycle rel err 0.2", rep)
	}
	if got := reg.FGauge("crossval.mp3d.max_abs_err").Value(); got != 0.2 {
		t.Errorf("crossval.mp3d.max_abs_err = %v, want 0.2", got)
	}
	if got := reg.FGauge("crossval.mp3d.mean_abs_err").Value(); got != 0.1 {
		t.Errorf("crossval.mp3d.mean_abs_err = %v, want 0.1", got)
	}

	short := &Grid{Workload: MP3D, Points: [][]*Point{{point(100, 20, 1200)}}}
	if _, err := CompareBackends(MP3D, exact, short, nil); err == nil {
		t.Error("paired a row of 2 points with a row of 1")
	}
	if _, err := CompareBackends(MP3D, exact, &Grid{Workload: MP3D}, nil); err == nil {
		t.Error("paired a grid of 1 row with an empty grid")
	}
}
