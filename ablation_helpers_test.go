package sccsim_test

import (
	"context"
	"testing"

	"sccsim"
	"sccsim/internal/explorer"
	"sccsim/internal/icache"
	"sccsim/internal/sim"
	"sccsim/internal/sparse"
	"sccsim/internal/stats"
	"sccsim/internal/workload/mp3d"
)

func sumU64(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// runPoint runs one design point of the paper's system through Do.
func runPoint(w sccsim.Workload, ppc, scc int, s sccsim.Scale, opts ...sccsim.Opt) (*sccsim.Point, error) {
	return sccsim.Do(context.Background(), w,
		append([]sccsim.Opt{sccsim.WithPoint(ppc, scc), sccsim.WithScale(s)}, opts...)...)
}

func runWithOptions(w sccsim.Workload, ppc, scc int, s sccsim.Scale, opts sccsim.Options) (*sccsim.Point, error) {
	return runPoint(w, ppc, scc, s, sccsim.WithSimOptions(opts))
}

// runPrivate runs a design point on the Section 2.1 alternative:
// per-processor private caches of the same total capacity.
func runPrivate(w sccsim.Workload, ppc, scc int, s sccsim.Scale) (*sccsim.Point, error) {
	return runPoint(w, ppc, scc, s, sccsim.WithAxes(sccsim.Axes{Hierarchy: sccsim.HierarchyPrivate}))
}

// runFlat runs a parallel workload on a conventional flat snoopy
// multiprocessor: procs single-processor clusters, each with a private
// cache of cacheBytes, on one bus.
func runFlat(w sccsim.Workload, procs, cacheBytes int, s sccsim.Scale) (*sccsim.Point, error) {
	cfg := sccsim.Config{Clusters: procs, ProcsPerCluster: 1, SCCBytes: cacheBytes, LoadLatency: 2, Assoc: 1}
	return sccsim.Do(context.Background(), w, sccsim.WithConfig(cfg), sccsim.WithScale(s))
}

func runAssoc(w sccsim.Workload, ppc, scc, assoc int, s sccsim.Scale) (*sccsim.Point, error) {
	cfg := sccsim.DefaultConfig(ppc, scc)
	cfg.Assoc = assoc
	return sccsim.Do(context.Background(), w, sccsim.WithConfig(cfg), sccsim.WithScale(s))
}

// scheduleStats builds the Cholesky fan-out schedule with a supernode
// width cap and returns (achieved concurrency on 32 processors, op count).
func scheduleStats(b *testing.B, maxWidth int) (float64, int) {
	b.Helper()
	a := sparse.GenerateBCSSTK14Like(sparse.BCSSTK14Params{Seed: 1})
	l := sparse.SymbolicFactor(a, sparse.EliminationTree(a))
	sns, colSn := sparse.FindSupernodes(l, maxWidth)
	ops, succ, indeg := sparse.BuildOps(l, sns, colSn)
	s1, err := sparse.ListSchedule(ops, succ, indeg, len(sns), 1)
	if err != nil {
		b.Fatal(err)
	}
	s32, err := sparse.ListSchedule(ops, succ, indeg, len(sns), 32)
	if err != nil {
		b.Fatal(err)
	}
	return float64(s1.Makespan) / float64(s32.Makespan), len(ops)
}

// icachePenalty derives the context-switch instruction-refill cost from
// the icache model.
func icachePenalty() (uint64, error) {
	return icache.RecommendedSwitchPenalty(0, 1)
}

// runMP3DLocks runs MP3D at the 4x4P/64KB point with or without per-cell
// locks.
func runMP3DLocks(s sccsim.Scale, locks bool) (*sccsim.Point, error) {
	particles, steps := s.MP3DParticles, s.MP3DSteps
	prog, err := mp3d.Generate(mp3d.Params{
		Particles: particles, Steps: steps, Procs: 16, Seed: s.Seed, CellLocks: locks,
	})
	if err != nil {
		return nil, err
	}
	cfg := sccsim.DefaultConfig(4, 64*1024)
	res, err := sim.Run(cfg, sim.Options{}, prog)
	if err != nil {
		return nil, err
	}
	return &sccsim.Point{Config: cfg, Result: res}, nil
}

// seedSensitivity summarizes cycle variation over five seeds.
func seedSensitivity(w sccsim.Workload, s sccsim.Scale) (stats.Summary, error) {
	return explorer.SeedSensitivity(w, 2, 32*1024, s, sim.Options{}, []int64{1, 2, 3, 4, 5})
}
