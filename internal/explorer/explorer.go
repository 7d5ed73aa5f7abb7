// Package explorer orchestrates the paper's experiments: it generates
// workload traces, runs the multiprocessor simulator across the
// processor-cache design space (Section 3), and collects the grids of
// results that the tables and figures are built from.
package explorer

import (
	"context"
	"fmt"

	"sccsim/internal/sim"
	"sccsim/internal/stats"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/workload/barnes"
	"sccsim/internal/workload/cholesky"
	"sccsim/internal/workload/mp3d"
)

// Workload names the four benchmarks.
type Workload string

// The paper's benchmarks.
const (
	BarnesHut Workload = "barnes-hut"
	MP3D      Workload = "mp3d"
	Cholesky  Workload = "cholesky"
	Multiprog Workload = "multiprog"
)

// ParallelWorkloads are the three SPLASH applications (Section 2.2).
var ParallelWorkloads = []Workload{BarnesHut, MP3D, Cholesky}

// AllWorkloads includes the multiprogramming workload.
var AllWorkloads = []Workload{BarnesHut, MP3D, Cholesky, Multiprog}

// ParseWorkload maps a workload name to its Workload, validating it
// against AllWorkloads — the boundary check for CLIs and servers that
// receive workload names as strings.
func ParseWorkload(name string) (Workload, error) {
	for _, w := range AllWorkloads {
		if string(w) == name {
			return w, nil
		}
	}
	return "", fmt.Errorf("explorer: unknown workload %q (want one of %v)", name, AllWorkloads)
}

// Scale sets the problem sizes. The zero value is the paper's
// configuration (with the multiprogramming reference budget scaled as
// documented in the multiprog package).
type Scale struct {
	// BarnesBodies (paper: 1024) and BarnesSteps (3).
	BarnesBodies, BarnesSteps int
	// MP3DParticles (paper: 10,000) and MP3DSteps (paper: 5).
	MP3DParticles, MP3DSteps int
	// MultiprogRefs is the per-application reference budget.
	MultiprogRefs int
	// CholeskyGridW/H override the matrix mesh (0 = BCSSTK14 scale).
	CholeskyGridW, CholeskyGridH int
	// Seed drives all generators.
	Seed int64
}

// QuickScale returns a reduced configuration for tests and examples:
// roughly 20x smaller than the paper runs.
func QuickScale() Scale {
	return Scale{
		BarnesBodies: 256, BarnesSteps: 2,
		MP3DParticles: 2000, MP3DSteps: 2,
		MultiprogRefs: 40_000,
		CholeskyGridW: 10, CholeskyGridH: 10,
		Seed: 1,
	}
}

// GenerateParallel builds the trace program for a parallel workload at
// the given total processor count.
func GenerateParallel(w Workload, procs int, s Scale) (*trace.Program, error) {
	switch w {
	case BarnesHut:
		return barnes.Generate(barnes.Params{
			NBodies: s.BarnesBodies, Steps: s.BarnesSteps, Procs: procs, Seed: s.Seed,
		})
	case MP3D:
		return mp3d.Generate(mp3d.Params{
			Particles: s.MP3DParticles, Steps: s.MP3DSteps, Procs: procs, Seed: s.Seed,
		})
	case Cholesky:
		return cholesky.Generate(cholesky.Params{
			Procs: procs, Seed: s.Seed, GridW: s.CholeskyGridW, GridH: s.CholeskyGridH,
		})
	default:
		return nil, fmt.Errorf("explorer: %q is not a parallel workload", w)
	}
}

// Point is one simulated design point.
type Point struct {
	Config sysmodel.Config
	Result *sim.Result
}

// Grid holds a full processor-cache design-space sweep for one workload:
// rows are SCC sizes (sysmodel.SCCSizes), columns processors per cluster
// (sysmodel.ProcsPerClusterSweep).
type Grid struct {
	Workload Workload
	// Points[si][pi] is the run at SCCSizes[si], ProcsPerClusterSweep[pi].
	Points [][]*Point
}

// Sizes returns the grid's SCC-size axis in row order (the order of
// Points). Use it instead of indexing Points directly.
func (g *Grid) Sizes() []int {
	return append([]int(nil), sysmodel.SCCSizes...)
}

// Procs returns the grid's processors-per-cluster axis in column order.
func (g *Grid) Procs() []int {
	return append([]int(nil), sysmodel.ProcsPerClusterSweep...)
}

// At returns the point for an SCC size and processors-per-cluster value.
func (g *Grid) At(sccBytes, ppc int) *Point {
	for si, s := range sysmodel.SCCSizes {
		if s != sccBytes {
			continue
		}
		for pi, p := range sysmodel.ProcsPerClusterSweep {
			if p == ppc {
				return g.Points[si][pi]
			}
		}
	}
	return nil
}

// Speedup returns execution time at 1 processor per cluster divided by
// execution time at ppc, for the given SCC size — the paper's Table 3
// metric (self-relative per SCC size).
func (g *Grid) Speedup(sccBytes, ppc int) float64 {
	base := g.At(sccBytes, 1)
	pt := g.At(sccBytes, ppc)
	if base == nil || pt == nil || pt.Result.Cycles == 0 {
		return 0
	}
	return float64(base.Result.Cycles) / float64(pt.Result.Cycles)
}

// NormalizedTime returns the point's execution time normalized to the
// slowest point in the grid (the paper's Figures 2-5 y-axis).
func (g *Grid) NormalizedTime(sccBytes, ppc int) float64 {
	var max uint64
	for _, row := range g.Points {
		for _, p := range row {
			if p.Result.Cycles > max {
				max = p.Result.Cycles
			}
		}
	}
	pt := g.At(sccBytes, ppc)
	if pt == nil || max == 0 {
		return 0
	}
	return float64(pt.Result.Cycles) / float64(max)
}

// PointConfig is the configuration of design point (ppc, sccBytes) for
// workload w: the paper's default system (sysmodel.Default), on a
// single cluster for the multiprogramming workload (the Figures 5-6
// setup: eight jobs on one cluster's processors), with the
// architecture axes applied. Every sweep, point, search and
// cost/performance entry builds its configurations here, and a remote
// worker's result must carry exactly this configuration.
func PointConfig(w Workload, ppc, sccBytes int, axes sysmodel.Axes) sysmodel.Config {
	cfg := sysmodel.Default(ppc, sccBytes)
	if w == Multiprog {
		cfg.Clusters = 1
	}
	return axes.Apply(cfg)
}

// SeedSensitivity runs one design point across several seeds and
// summarizes the execution-time variation — the error-bar check the
// paper (like most 1994 papers) omits. The returned summary is over
// cycles (ExactCycles: a seed's point an earlier exact run returned is
// not simulated again); a small coefficient of variation means
// single-seed results are representative.
func SeedSensitivity(w Workload, ppc, sccBytes int, s Scale, opts sim.Options, seeds []int64) (stats.Summary, error) {
	if len(seeds) == 0 {
		return stats.Summary{}, fmt.Errorf("explorer: no seeds")
	}
	cfg := []sysmodel.Config{PointConfig(w, ppc, sccBytes, sysmodel.Axes{})}
	runs := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		sc := s
		sc.Seed = seed
		c, err := ExactCycles(context.TODO(), w, cfg, sc, opts, EngineOptions{})
		if err != nil {
			return stats.Summary{}, err
		}
		runs = append(runs, float64(c[0]))
	}
	return stats.Summarize(runs), nil
}
