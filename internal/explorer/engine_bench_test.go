package explorer_test

import (
	"context"
	"fmt"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
)

// BenchmarkSweepParallelism measures how the QuickScale Barnes-Hut
// design-space sweep scales with the engine's worker-pool size. The
// trace cache is warmed first so the benchmark isolates simulation
// throughput. On a multi-core machine the 4-worker run should be well
// over 1.5x faster than 1 worker; on a single core all sizes converge.
// Besides ns/op it reports sim_cycles/us — simulated cycles delivered
// per microsecond of wall time.
func BenchmarkSweepParallelism(b *testing.B) {
	s := explorer.QuickScale()
	if _, err := explorer.Sweep(context.Background(), explorer.BarnesHut, s,
		sim.Options{}, explorer.EngineOptions{Parallelism: 1}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				g, err := explorer.Sweep(context.Background(), explorer.BarnesHut, s,
					sim.Options{}, explorer.EngineOptions{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range g.Points {
					for _, pt := range row {
						cycles += pt.Result.Cycles
					}
				}
			}
			if us := b.Elapsed().Seconds() * 1e6; us > 0 {
				b.ReportMetric(float64(cycles)/us, "sim_cycles/us")
			}
		})
	}
}
