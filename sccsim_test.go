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

func TestParseWorkload(t *testing.T) {
	for _, w := range sccsim.AllWorkloads {
		got, err := sccsim.ParseWorkload(string(w))
		if err != nil || got != w {
			t.Errorf("ParseWorkload(%q) = %v, %v", w, got, err)
		}
	}
	if _, err := sccsim.ParseWorkload("fft"); err == nil {
		t.Error("ParseWorkload accepted an unknown workload")
	}
}

// TestSpecValidate: table-driven validation of an experiment's
// specification, its options, through sccsim.Validate — unknown or
// contradictory options fail with actionable messages, valid ones pass
// (the same check the HTTP service maps to 400s).
func TestSpecValidate(t *testing.T) {
	exact, analytic := sccsim.WithBackend(sccsim.BackendExact), sccsim.WithBackend(sccsim.BackendAnalytic)
	quantum := sccsim.WithBackend("quantum")
	cases := []struct {
		name    string
		opts    []sccsim.Opt
		wantErr string // "" means valid
	}{
		{"zero spec", nil, ""},
		{"exact", []sccsim.Opt{exact}, ""},
		{"analytic", []sccsim.Opt{analytic}, ""},
		{"unknown backend", []sccsim.Opt{quantum}, "unknown backend"},
		{"unknown backend lists valid values", []sccsim.Opt{quantum}, "[exact analytic]"},
		{"verify on analytic", []sccsim.Opt{analytic, sccsim.WithVerify()}, "exact backend"},
		{"sim options on analytic", []sccsim.Opt{analytic, sccsim.WithSimOptions(sccsim.Options{})}, "exact backend"},
		{"verify on exact", []sccsim.Opt{exact, sccsim.WithVerify()}, ""},
		{"assoc on analytic", []sccsim.Opt{analytic, sccsim.WithAxes(sccsim.Axes{Assoc: 4})}, ""},
		{"random repl on analytic", []sccsim.Opt{analytic, sccsim.WithAxes(sccsim.Axes{Repl: sccsim.ReplRandom})}, "exact backend"},
		{"hierarchy on analytic", []sccsim.Opt{analytic, sccsim.WithAxes(sccsim.Axes{Hierarchy: sccsim.HierarchyHybrid})}, "exact backend"},
		{"line bytes on analytic", []sccsim.Opt{analytic, sccsim.WithAxes(sccsim.Axes{LineBytes: 32})}, "exact backend"},
		{"bad axes", []sccsim.Opt{sccsim.WithAxes(sccsim.Axes{Assoc: 3})}, "divisible"},
		{"hierarchy on exact", []sccsim.Opt{sccsim.WithAxes(sccsim.Axes{Hierarchy: sccsim.HierarchyPrivate})}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := sccsim.Validate(tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
