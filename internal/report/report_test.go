package report

import (
	"context"
	"strings"
	"testing"

	"sccsim/internal/costperf"
	"sccsim/internal/explorer"
	"sccsim/internal/sim"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	w := len(lines[0])
	for i, l := range lines {
		if len(l) != w {
			t.Errorf("line %d width %d, want %d:\n%s", i, len(l), w, out)
		}
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("missing rule line")
	}
}

func quickGrid(t *testing.T, w explorer.Workload) *explorer.Grid {
	t.Helper()
	g, err := explorer.Sweep(context.Background(), w, explorer.QuickScale(), sim.Options{}, explorer.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridRenderers(t *testing.T) {
	g := quickGrid(t, explorer.BarnesHut)
	for name, out := range map[string]string{
		"SpeedupTable":      SpeedupTable(g),
		"Figure":            Figure(g, "Figure 2"),
		"SpeedupFigure":     SpeedupFigure(g),
		"InvalidationTable": InvalidationTable(g),
	} {
		if !strings.Contains(out, "4 KB") || !strings.Contains(out, "512 KB") {
			t.Errorf("%s missing size rows:\n%s", name, out)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "%!") {
			t.Errorf("%s has formatting artifacts:\n%s", name, out)
		}
	}
	// MissRateTable reports the paper's three sample sizes as columns.
	mrt := MissRateTable(g)
	if !strings.Contains(mrt, "8 KB") || !strings.Contains(mrt, "256 KB") {
		t.Errorf("MissRateTable missing size columns:\n%s", mrt)
	}
	if !strings.Contains(Figure(g, "Figure 2"), "Figure 2") {
		t.Error("Figure missing its title")
	}
}

func TestTable5Render(t *testing.T) {
	out := Table5()
	for _, want := range []string{"barnes-hut", "mp3d", "cholesky", "multiprog", "1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q:\n%s", want, out)
		}
	}
}

func TestTables6And7Render(t *testing.T) {
	s := explorer.QuickScale()
	var entries []*costperf.Entry
	for _, w := range []explorer.Workload{explorer.BarnesHut, explorer.Cholesky} {
		e, err := costperf.BuildEntryCtx(context.Background(), w, s, sim.Options{}, explorer.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	out6 := Table6(costperf.CompareSingleChip(entries))
	if !strings.Contains(out6, "1 Proc/64KB") || !strings.Contains(out6, "cost/performance") {
		t.Errorf("Table6 malformed:\n%s", out6)
	}
	out7 := Table7(costperf.CompareMCM(entries))
	if !strings.Contains(out7, "16P") || !strings.Contains(out7, "scaling") {
		t.Errorf("Table7 malformed:\n%s", out7)
	}
}

func TestAreaReport(t *testing.T) {
	out := AreaReport()
	for _, want := range []string{"204", "279", "297", "306", "C4", "MCM", "FO4", "64 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("AreaReport missing %q:\n%s", want, out)
		}
	}
}

func TestFrontierTable(t *testing.T) {
	g := quickGrid(t, explorer.BarnesHut)
	pts := costperf.Frontier(g)
	out := FrontierTable(explorer.BarnesHut, pts)
	for _, want := range []string{"infeasible", "pareto", "best cost/performance"} {
		if !strings.Contains(out, want) {
			t.Errorf("FrontierTable missing %q:\n%s", want, out)
		}
	}
}

func TestGridCSV(t *testing.T) {
	g := quickGrid(t, explorer.MP3D)
	out := GridCSV(g)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+32 {
		t.Fatalf("CSV has %d lines, want header + 32 points", len(lines))
	}
	if !strings.HasPrefix(lines[0], "workload,") {
		t.Errorf("bad header: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 9 {
			t.Errorf("bad CSV row: %s", l)
		}
	}
}
