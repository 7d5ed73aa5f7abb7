package sccsim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestBackendValidation: every option combination the analytic backend
// cannot honor — and every unknown backend name — fails fast with an
// actionable error, before any simulation work.
func TestBackendValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		opts    []Opt
		wantErr string
	}{
		{"unknown backend", []Opt{WithBackend("simulate")}, "unknown backend"},
		{"unknown backend lists values", []Opt{WithBackend("fast")}, "[exact analytic]"},
		{"verify needs exact", []Opt{WithBackend(BackendAnalytic), WithVerify()}, "exact backend"},
		{"sim options need exact", []Opt{WithBackend(BackendAnalytic), WithSimOptions(Options{})}, "exact backend"},
		{"trace export needs exact", []Opt{WithBackend(BackendAnalytic), WithTraceExport(&bytes.Buffer{})}, "exact backend"},
		{"order independent", []Opt{WithVerify(), WithBackend(BackendAnalytic)}, "exact backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Do(ctx, BarnesHut, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Do: err %v, want substring %q", err, tc.wantErr)
			}
			if _, err := SweepCtx(ctx, BarnesHut, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("SweepCtx: err %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	if _, err := BuildCostPerfEntryCtx(ctx, BarnesHut, WithBackend(BackendAnalytic)); err == nil ||
		!strings.Contains(err.Error(), "exact backend") {
		t.Errorf("BuildCostPerfEntryCtx on analytic: err %v", err)
	}
}

// TestAnalyticSweepManifest: an analytic sweep flows through the same
// manifest machinery and stamps the backend at both the manifest and
// point level.
func TestAnalyticSweepManifest(t *testing.T) {
	var buf bytes.Buffer
	var rep SweepReport
	g, err := SweepCtx(context.Background(), MP3D,
		WithScale(QuickScale()), WithBackend(BackendAnalytic),
		WithManifest(&buf), WithSweepReport(func(r SweepReport) { rep = r }))
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || len(g.Points) == 0 {
		t.Fatal("analytic sweep returned no grid")
	}
	if rep.Backend != BackendAnalytic {
		t.Errorf("sweep report backend %q", rep.Backend)
	}
	var m RunManifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Backend != string(BackendAnalytic) {
		t.Errorf("manifest backend %q, want %q", m.Backend, BackendAnalytic)
	}
	for _, pt := range m.Points {
		if pt.Backend != string(BackendAnalytic) {
			t.Fatalf("point %dP/%dB backend %q", pt.ProcsPerCluster, pt.SCCBytes, pt.Backend)
		}
		if pt.Cycles == 0 || pt.ReadMissRate <= 0 {
			t.Fatalf("empty analytic point in manifest: %+v", pt)
		}
	}
}

// TestAnalyticDoMatchesSweep: Do on the analytic backend agrees with
// the corresponding sweep cell, exactly as the exact backend does.
func TestAnalyticDoMatchesSweep(t *testing.T) {
	ctx := context.Background()
	scale := QuickScale()
	pt, err := Do(ctx, BarnesHut, WithScale(scale), WithPoint(4, 128*1024), WithBackend(BackendAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	g, err := SweepCtx(ctx, BarnesHut, WithScale(scale), WithBackend(BackendAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	cell := g.At(128*1024, 4)
	if cell == nil {
		t.Fatal("sweep grid misses 4P/128KB")
	}
	if pt.Result.Cycles != cell.Result.Cycles || pt.Result.ReadMissRate() != cell.Result.ReadMissRate() {
		t.Errorf("Do %d/%.5f != sweep %d/%.5f",
			pt.Result.Cycles, pt.Result.ReadMissRate(), cell.Result.Cycles, cell.Result.ReadMissRate())
	}
	// Multiprog on the analytic backend lands on one cluster, like Do's
	// exact path.
	mp, err := Do(ctx, Multiprog, WithScale(scale), WithBackend(BackendAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	if mp.Config.Clusters != 1 {
		t.Errorf("analytic multiprog ran on %d clusters", mp.Config.Clusters)
	}
}

// TestAnalyticAssocPastCap: the analytic model tracks distances up to
// a 512 KB SCC's line count, so a larger SCC is modeled as 512 KB, and
// a 512 KB SCC is at most fully associative. A 1 MB fully-associative
// SCC must therefore predict what a 512 KB fully-associative one does,
// a miss rate above zero and at most the direct-mapped 1 MB one's.
func TestAnalyticAssocPastCap(t *testing.T) {
	ctx := context.Background()
	do := func(sccBytes, assoc int) *Point {
		t.Helper()
		cfg := DefaultConfig(1, sccBytes)
		cfg.Assoc = assoc
		pt, err := Do(ctx, MP3D, WithScale(QuickScale()), WithConfig(cfg), WithBackend(BackendAnalytic))
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	const mb = 1 << 20
	full, atCap, dm := do(mb, mb/16), do(mb/2, mb/32), do(mb, 1)
	if full.Result.Cycles != atCap.Result.Cycles || full.Result.ReadMissRate() != atCap.Result.ReadMissRate() {
		t.Errorf("1 MB fully associative predicts %d cycles, miss rate %.4f; 512 KB fully associative %d, %.4f",
			full.Result.Cycles, full.Result.ReadMissRate(), atCap.Result.Cycles, atCap.Result.ReadMissRate())
	}
	if r := full.Result.ReadMissRate(); r <= 0 || r > dm.Result.ReadMissRate() {
		t.Errorf("1 MB fully associative predicts miss rate %.4f, want above 0 and at most direct-mapped's %.4f",
			r, dm.Result.ReadMissRate())
	}
}
