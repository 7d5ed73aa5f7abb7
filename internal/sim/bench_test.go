package sim_test

import (
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/workload/multiprog"
)

// BenchmarkReplay measures the replay loop on each path through the
// simulator, reporting host nanoseconds per simulated reference
// (ns/ref) and allocations per run set. The traces are QuickScale and
// generated, and compiled, before the timer starts. The parallel paths
// run the three SPLASH applications at 2 and 8 processors per cluster
// and 8 KB and 128 KB per SCC:
//
//   - shared-dm: the paper's direct-mapped shared SCC;
//   - shared-4way: the same with 4-way LRU tags;
//   - private: per-processor private caches;
//   - hybrid: private L1s in front of the shared SCC.
//
// multiprog runs the multiprogramming workload on one cluster of 2 and
// of 8 processors, at the same two SCC sizes.
//
//	go test -run '^$' -bench Replay -benchtime 3x ./internal/sim
func BenchmarkReplay(b *testing.B) {
	s := explorer.QuickScale()
	ppcs := []int{2, 8}
	sizes := []int{8 << 10, 128 << 10}

	type point struct {
		w    explorer.Workload
		ppc  int
		size int
		prog *trace.Program
	}
	var points []point
	for _, w := range explorer.ParallelWorkloads {
		for _, ppc := range ppcs {
			prog, err := explorer.GenerateParallel(w, sysmodel.DefaultClusters*ppc, s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := trace.Compile(prog); err != nil {
				b.Fatal(err)
			}
			for _, size := range sizes {
				points = append(points, point{w, ppc, size, prog})
			}
		}
	}
	procs, err := multiprog.Generate(multiprog.Params{RefsPerApp: s.MultiprogRefs, Seed: s.Seed})
	if err != nil {
		b.Fatal(err)
	}
	quantum := multiprog.Quantum(s.MultiprogRefs)

	// run times fn over b.N iterations and reports ns per simulated
	// reference; fn returns the references it simulated.
	run := func(b *testing.B, fn func() uint64) {
		b.ReportAllocs()
		b.ResetTimer()
		var refs uint64
		for i := 0; i < b.N; i++ {
			refs += fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
	}
	for _, path := range []struct {
		name string
		axes sysmodel.Axes
	}{
		{"shared-dm", sysmodel.Axes{}},
		{"shared-4way", sysmodel.Axes{Assoc: 4}},
		{"private", sysmodel.Axes{Hierarchy: sysmodel.HierarchyPrivate}},
		{"hybrid", sysmodel.Axes{Hierarchy: sysmodel.HierarchyHybrid}},
	} {
		b.Run(path.name, func(b *testing.B) {
			run(b, func() uint64 {
				var refs uint64
				for _, pt := range points {
					res, err := sim.Run(explorer.PointConfig(pt.w, pt.ppc, pt.size, path.axes), sim.Options{}, pt.prog)
					if err != nil {
						b.Fatal(err)
					}
					refs += res.Refs
				}
				return refs
			})
		})
	}
	b.Run("multiprog", func(b *testing.B) {
		run(b, func() uint64 {
			var refs uint64
			for _, ppc := range ppcs {
				for _, size := range sizes {
					cfg := explorer.PointConfig(explorer.Multiprog, ppc, size, sysmodel.Axes{})
					res, err := sim.RunMultiprog(cfg, sim.Options{}, procs, quantum)
					if err != nil {
						b.Fatal(err)
					}
					refs += res.Refs
				}
			}
			return refs
		})
	})
}
