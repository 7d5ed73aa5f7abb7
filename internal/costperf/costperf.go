// Package costperf implements Section 5 of the paper: it combines the
// memory-system simulation results with the pipeline load-latency factors
// (Table 5) and the chip-area cost model to produce the single-chip
// comparison (Table 6), the MCM comparison (Table 7), and the
// cost/performance conclusions.
package costperf

import (
	"context"
	"fmt"
	"math"

	"sccsim/internal/area"
	"sccsim/internal/explorer"
	"sccsim/internal/pipeline"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

// ClusterConfigs maps processors-per-cluster to the cluster SCC size of
// the Section 4 implementation (1P/64KB, 2P/32KB, 4P/64KB, 8P/128KB).
func ClusterConfigs() map[int]int {
	out := make(map[int]int)
	for ppc, d := range area.Designs() {
		out[ppc] = d.ClusterSCCBytes()
	}
	return out
}

// Entry holds one workload's latency-adjusted execution times across the
// four cluster implementations.
type Entry struct {
	Workload explorer.Workload
	// RawCycles[ppc] is the simulated memory-system execution time.
	RawCycles map[int]uint64
	// AdjCycles[ppc] is RawCycles multiplied by the Table 5 load-latency
	// factor of the implementation — the paper's Section 5 methodology:
	// "Multiplying the performance values in Section 3 by the factors in
	// this table provides a good approximation."
	AdjCycles map[int]float64
}

// Adjusted returns cycles scaled by the workload's load-latency factor.
func Adjusted(w explorer.Workload, ppc int, raw uint64) float64 {
	lat := area.Designs()[ppc].LoadLatency
	return float64(raw) * pipeline.RelTimeFor(string(w), lat)
}

// BuildEntryCtx simulates the four Section 4 implementations for one
// workload on the concurrent sweep engine: the four points are
// independent simulations and run on the engine's worker pool, honoring
// ctx cancellation. It reads only their cycles, so it asks
// explorer.ExactCycles, which simulates only the points no earlier
// exact run in the process has (a grid sweep holds all four).
func BuildEntryCtx(ctx context.Context, w explorer.Workload, s explorer.Scale, opts sim.Options, eng explorer.EngineOptions) (*Entry, error) {
	e := &Entry{
		Workload:  w,
		RawCycles: make(map[int]uint64),
		AdjCycles: make(map[int]float64),
	}
	specs := explorer.SortedPointSpecs(ClusterConfigs())
	cfgs := make([]sysmodel.Config, len(specs))
	for i, sp := range specs {
		cfgs[i] = explorer.PointConfig(w, sp.PPC, sp.SCCBytes, eng.Axes)
	}
	raw, err := explorer.ExactCycles(ctx, w, cfgs, s, opts, eng)
	if err != nil {
		return nil, fmt.Errorf("costperf: %s: %w", w, err)
	}
	for i, spec := range specs {
		e.RawCycles[spec.PPC] = raw[i]
		e.AdjCycles[spec.PPC] = Adjusted(w, spec.PPC, raw[i])
	}
	return e, nil
}

// Normalized returns the entry's adjusted time at ppc normalized so the
// 8-processor-per-cluster implementation reads as 1.0 (a scale-free view
// of the paper's Tables 6-7 columns).
func (e *Entry) Normalized(ppc int) float64 {
	base := e.AdjCycles[8]
	if base == 0 {
		return 0
	}
	return e.AdjCycles[ppc] / base
}

// SingleChip is the Table 6 comparison: one processor with a 64 KB cache
// versus two processors with a 32 KB SCC, both single-chip cluster
// implementations, in four-cluster systems.
type SingleChip struct {
	Entries []*Entry
	// MeanSpeedup is the geometric-mean performance advantage of the
	// 2-processor configuration (paper: "on average ... 70% faster").
	MeanSpeedup float64
	// AreaRatio is the 2-processor chip's area relative to the
	// 1-processor chip (paper: 1.37).
	AreaRatio float64
	// CostPerfGain is MeanSpeedup/AreaRatio - 1 (paper: ~24%).
	CostPerfGain float64
}

// CompareSingleChip builds Table 6 from per-workload entries.
func CompareSingleChip(entries []*Entry) *SingleChip {
	sc := &SingleChip{Entries: entries, AreaRatio: area.RelativeArea(2)}
	prod := 1.0
	n := 0
	for _, e := range entries {
		t1, t2 := e.AdjCycles[1], e.AdjCycles[2]
		if t1 > 0 && t2 > 0 {
			prod *= t1 / t2
			n++
		}
	}
	if n > 0 {
		sc.MeanSpeedup = math.Pow(prod, 1.0/float64(n))
	}
	if sc.AreaRatio > 0 {
		sc.CostPerfGain = sc.MeanSpeedup/sc.AreaRatio - 1
	}
	return sc
}

// MCM is the Table 7 comparison: 16 processors (4 per cluster, 64 KB
// SCCs) and 32 processors (8 per cluster, 128 KB SCCs), MCM-packaged.
type MCM struct {
	Entries []*Entry
	// MeanScaling is the geometric-mean speedup from 16 to 32 processors
	// (paper: linear except Cholesky).
	MeanScaling float64
	// MeanScalingNoCholesky excludes Cholesky, the paper's stated
	// exception.
	MeanScalingNoCholesky float64
}

// CompareMCM builds Table 7 from per-workload entries.
func CompareMCM(entries []*Entry) *MCM {
	m := &MCM{Entries: entries}
	prod, prodNC := 1.0, 1.0
	n, nNC := 0, 0
	for _, e := range entries {
		t4, t8 := e.AdjCycles[4], e.AdjCycles[8]
		if t4 > 0 && t8 > 0 {
			r := t4 / t8
			prod *= r
			n++
			if e.Workload != explorer.Cholesky {
				prodNC *= r
				nNC++
			}
		}
	}
	if n > 0 {
		m.MeanScaling = math.Pow(prod, 1.0/float64(n))
	}
	if nNC > 0 {
		m.MeanScalingNoCholesky = math.Pow(prodNC, 1.0/float64(nNC))
	}
	return m
}
