package sccsim_test

import (
	"context"
	"strings"
	"testing"

	"sccsim"
)

func TestDefaultConfig(t *testing.T) {
	cfg := sccsim.DefaultConfig(2, 32*1024)
	if cfg.Clusters != 4 || cfg.LoadLatency != 3 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSweepAndRenderPublicAPI(t *testing.T) {
	grid, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut, sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	if out := sccsim.SpeedupTable(grid); !strings.Contains(out, "barnes-hut") {
		t.Errorf("SpeedupTable output:\n%s", out)
	}
	if grid.Speedup(512*1024, 8) <= 1 {
		t.Error("no speedup at 8 procs/cluster, 512KB")
	}
}

func TestRunPublicAPI(t *testing.T) {
	pt, err := runPoint(sccsim.MP3D, 4, 64*1024, sccsim.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Result.Cycles == 0 || pt.Result.Refs == 0 {
		t.Errorf("empty result: %+v", pt.Result)
	}
}

func TestTraceAPI(t *testing.T) {
	prog, err := sccsim.GenerateTrace(sccsim.Cholesky, 4, sccsim.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	prof := sccsim.AnalyzeTrace(prog)
	if prof.RefTotal() == 0 || prof.FootprintLines == 0 {
		t.Errorf("empty profile: %+v", prof)
	}
}

func TestChipDesignsAPI(t *testing.T) {
	designs := sccsim.ChipDesigns()
	if len(designs) != 4 {
		t.Fatalf("got %d designs", len(designs))
	}
	if a := designs[2].ChipArea(); a < 270 || a > 290 {
		t.Errorf("2P chip area = %.0f, paper 279", a)
	}
}

func TestLoadLatencyFactorAPI(t *testing.T) {
	if f := sccsim.LoadLatencyFactor(sccsim.BarnesHut, 2); f != 1.0 {
		t.Errorf("factor(2) = %v", f)
	}
	if f := sccsim.LoadLatencyFactor(sccsim.Cholesky, 4); f < 1.1 {
		t.Errorf("factor(4) = %v, want > 1.1", f)
	}
}

func TestMultiprogAppsAPI(t *testing.T) {
	apps := sccsim.MultiprogApps()
	if len(apps) != 8 {
		t.Errorf("got %d apps, want 8 (Table 2)", len(apps))
	}
}

func TestRenderStaticTables(t *testing.T) {
	if !strings.Contains(sccsim.RenderTable5(), "1.00") {
		t.Error("Table 5 render")
	}
	if !strings.Contains(sccsim.RenderAreaReport(), "204") {
		t.Error("area report render")
	}
}
