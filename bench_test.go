// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment and, on the last
// iteration, prints the rows the paper reports (run with -v to see them).
//
// By default the benchmarks run at the paper's problem sizes. Set
// SCCSIM_BENCH_SCALE=quick for a ~20x faster pass with the same shapes.
package sccsim_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"sccsim"
)

func benchScale() sccsim.Scale {
	if os.Getenv("SCCSIM_BENCH_SCALE") == "quick" {
		return sccsim.QuickScale()
	}
	return sccsim.PaperScale()
}

// Sweeps are cached across benchmarks so -bench=. doesn't repeat the
// expensive grid runs for figures and tables that share a workload.
var (
	gridMu    sync.Mutex
	gridCache = map[sccsim.Workload]*sccsim.Grid{}
)

func sweep(b *testing.B, w sccsim.Workload) *sccsim.Grid {
	b.Helper()
	gridMu.Lock()
	defer gridMu.Unlock()
	if g, ok := gridCache[w]; ok {
		return g
	}
	g, err := sccsim.SweepCtx(context.Background(), w, sccsim.WithScale(benchScale()))
	if err != nil {
		b.Fatal(err)
	}
	gridCache[w] = g
	return g
}

var (
	entriesOnce sync.Once
	entriesVal  []*sccsim.CostPerfEntry
	entriesErr  error
)

func costEntries(b *testing.B) []*sccsim.CostPerfEntry {
	b.Helper()
	entriesOnce.Do(func() {
		for _, w := range sccsim.AllWorkloads {
			e, err := sccsim.BuildCostPerfEntryCtx(context.Background(), w, sccsim.WithScale(benchScale()))
			if err != nil {
				entriesErr = err
				return
			}
			entriesVal = append(entriesVal, e)
		}
	})
	if entriesErr != nil {
		b.Fatal(entriesErr)
	}
	return entriesVal
}

// show prints the experiment output on the final iteration only.
func show(b *testing.B, i int, out string) {
	if i == b.N-1 {
		fmt.Printf("\n%s\n", out)
	}
}

// BenchmarkFig2BarnesHut regenerates Figure 2: Barnes-Hut normalized
// execution time across the processor-cache design space.
func BenchmarkFig2BarnesHut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.BarnesHut)
		show(b, i, sccsim.Figure(g, "Figure 2 — Barnes-Hut"))
	}
}

// BenchmarkTable3BarnesSpeedup regenerates Table 3: Barnes-Hut speedups
// relative to one processor per cluster.
func BenchmarkTable3BarnesSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.BarnesHut)
		show(b, i, sccsim.SpeedupTable(g))
	}
}

// BenchmarkTable4MissRates regenerates Table 4: Barnes-Hut read miss
// rates for 8/64/256 KB SCCs (prefetching vs destructive interference).
func BenchmarkTable4MissRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.BarnesHut)
		show(b, i, sccsim.MissRateTable(g))
	}
}

// BenchmarkFig3MP3D regenerates Figure 3: MP3D performance.
func BenchmarkFig3MP3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.MP3D)
		show(b, i, sccsim.Figure(g, "Figure 3 — MP3D"))
	}
}

// BenchmarkFig4Cholesky regenerates Figure 4: Cholesky performance.
func BenchmarkFig4Cholesky(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.Cholesky)
		show(b, i, sccsim.Figure(g, "Figure 4 — Cholesky"))
	}
}

// BenchmarkFig5Multiprog regenerates Figure 5: multiprogramming
// performance on one cluster.
func BenchmarkFig5Multiprog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.Multiprog)
		show(b, i, sccsim.Figure(g, "Figure 5 — multiprogramming"))
	}
}

// BenchmarkFig6MultiprogSpeedup regenerates Figure 6: multiprogramming
// self-relative speedups.
func BenchmarkFig6MultiprogSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := sweep(b, sccsim.Multiprog)
		show(b, i, sccsim.SpeedupFigure(g))
	}
}

// BenchmarkTable5LoadLatency regenerates Table 5: relative uniprocessor
// execution time for 2/3/4-cycle loads.
func BenchmarkTable5LoadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, i, sccsim.RenderTable5())
	}
}

// BenchmarkTable6SingleChip regenerates Table 6: the single-chip cluster
// comparison (1P/64KB vs 2P/32KB).
func BenchmarkTable6SingleChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := sccsim.CompareSingleChip(costEntries(b))
		show(b, i, sccsim.RenderTable6(sc))
	}
}

// BenchmarkTable7MCM regenerates Table 7: the MCM comparison
// (4P/64KB x4 = 16 processors vs 8P/128KB x4 = 32 processors).
func BenchmarkTable7MCM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := sccsim.CompareMCM(costEntries(b))
		show(b, i, sccsim.RenderTable7(m))
	}
}

// BenchmarkFigs8to11Area regenerates the Section 4 chip designs and
// areas.
func BenchmarkFigs8to11Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, i, sccsim.RenderAreaReport())
	}
}

// BenchmarkInvalidationInvariance regenerates the Section 3.1.2 claim:
// invalidations do not grow with processors per cluster.
func BenchmarkInvalidationInvariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := ""
		for _, w := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky} {
			out += sccsim.InvalidationTable(sweep(b, w)) + "\n"
		}
		show(b, i, out)
	}
}

// BenchmarkSeedSensitivity measures run-to-run variation across workload
// seeds at the 2P/32KB design point — the error bars the paper's
// single-run methodology leaves implicit.
func BenchmarkSeedSensitivity(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "seed sensitivity at 2 procs/cluster, 32 KB SCC (5 seeds):\n"
		for _, w := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky} {
			sum, err := seedSensitivity(w, scale)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  %-10s %s\n", w, sum)
		}
		show(b, i, out)
	}
}
