package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ManifestVersion is the schema version stamped into every manifest.
// Bump it on any breaking change to the document layout; consumers key
// their parsers on it.
const ManifestVersion = 1

// Manifest is the machine-readable record of one design-space sweep:
// what was run (workload, scale, config grid), where (host, toolchain),
// how fast (per-point and whole-sweep timings, worker utilization,
// trace-cache effectiveness) and what came out (per-point simulator
// statistics). `sccexplore -manifest` and sccsim.WithManifest write
// one per sweep or search.
type Manifest struct {
	Version   int    `json:"version"`
	Tool      string `json:"tool"`
	CreatedAt string `json:"created_at,omitempty"`
	Host      Host   `json:"host"`

	Workload string `json:"workload"`
	// Backend that produced the points ("exact" or "analytic"); empty
	// in manifests written before backends existed, which readers treat
	// as exact.
	Backend string `json:"backend,omitempty"`
	// RequestID joins this manifest to the HTTP request (and its
	// structured log lines) that produced it; empty for CLI runs.
	RequestID   string `json:"request_id,omitempty"`
	Scale       any    `json:"scale"`
	Parallelism int    `json:"parallelism"`

	Grid      GridAxes      `json:"grid"`
	Points    []PointRecord `json:"points"`
	Aggregate Aggregate     `json:"aggregate"`
	Sweep     SweepStats    `json:"sweep"`

	// Search is the adaptive-search stamp: strategy, budget, seed and
	// per-stage accounting. Present only in manifests written by a
	// search run (Backend "search"), where Points lists the confirmed
	// frontier rather than a full grid.
	Search *SearchStamp `json:"search,omitempty"`

	// Metrics is an optional registry snapshot (see Registry.Snapshot).
	Metrics map[string]any `json:"metrics,omitempty"`
}

// Host records where the run happened.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// GridAxes names the swept design-space axes.
type GridAxes struct {
	SCCBytes        []int `json:"scc_bytes"`
	ProcsPerCluster []int `json:"procs_per_cluster"`
}

// PointRecord is one design point's outcome.
type PointRecord struct {
	ProcsPerCluster int `json:"procs_per_cluster"`
	SCCBytes        int `json:"scc_bytes"`
	Clusters        int `json:"clusters"`
	// Backend that produced this point; empty means exact (pre-backend
	// manifests). Benchmark baselines key on it so exact and analytic
	// throughput entries coexist in one file.
	Backend string `json:"backend,omitempty"`

	Cycles            uint64  `json:"cycles"`
	Refs              uint64  `json:"refs"`
	ReadMissRate      float64 `json:"read_miss_rate"`
	ReadStallCycles   uint64  `json:"read_stall_cycles"`
	WriteStallCycles  uint64  `json:"write_stall_cycles"`
	BankStallCycles   uint64  `json:"bank_stall_cycles"`
	BusFetches        uint64  `json:"bus_fetches"`
	Invalidations     uint64  `json:"invalidations"`
	WallNanos         int64   `json:"wall_ns"`
	QueueWaitNanos    int64   `json:"queue_wait_ns"`
	SimCyclesPerMicro float64 `json:"sim_cycles_per_us"`
}

// Aggregate sums the per-point simulator statistics.
type Aggregate struct {
	Points        int    `json:"points"`
	Refs          uint64 `json:"refs"`
	BusFetches    uint64 `json:"bus_fetches"`
	Invalidations uint64 `json:"invalidations"`
	BestCycles    uint64 `json:"best_cycles"`
	WorstCycles   uint64 `json:"worst_cycles"`
}

// SweepStats records the engine-level timings of the sweep.
type SweepStats struct {
	WallNanos        int64   `json:"wall_ns"`
	Workers          int     `json:"workers"`
	Utilization      float64 `json:"utilization"`
	QueueWaitNanos   int64   `json:"queue_wait_ns"`
	PointWallP50     int64   `json:"point_wall_p50_ns"`
	PointWallP95     int64   `json:"point_wall_p95_ns"`
	TraceCacheHits   uint64  `json:"trace_cache_hits"`
	TraceCacheMisses uint64  `json:"trace_cache_misses"`
	// TraceDiskHits counts cache misses satisfied by the persistent
	// on-disk trace cache; TraceGenerated counts misses that ran a
	// workload generator. DiskHits + Generated == Misses.
	TraceDiskHits  uint64 `json:"trace_disk_hits"`
	TraceGenerated uint64 `json:"trace_generated"`
}

// SearchStamp records how an adaptive design-space search produced its
// frontier: the resolved strategy and inputs, and how many candidates
// each pipeline stage handled. The exact-simulation count against the
// space size is the search's efficiency claim in numbers.
type SearchStamp struct {
	// Strategy is the resolved strategy ("exhaustive", "adaptive",
	// "random"); Budget, Seed and Margin echo the resolved spec.
	Strategy string  `json:"strategy"`
	Budget   int     `json:"budget,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Margin   float64 `json:"margin"`
	// SpaceSize is the enumerated candidate count; StaticPruned,
	// TriagePruned, Plausible, Sampled, AnalyticEvals, ExactSims,
	// Abandoned and Rounds are the per-stage accounting (see
	// search.Stats for the stage semantics).
	SpaceSize     int `json:"space_size"`
	StaticPruned  int `json:"static_pruned"`
	TriagePruned  int `json:"triage_pruned"`
	Plausible     int `json:"plausible"`
	Sampled       int `json:"sampled,omitempty"`
	AnalyticEvals int `json:"analytic_evals"`
	ExactSims     int `json:"exact_sims"`
	Abandoned     int `json:"abandoned"`
	Rounds        int `json:"rounds"`
	// FrontierSize is the confirmed Pareto-frontier point count.
	FrontierSize int `json:"frontier_size"`
}

// WriteManifest validates and writes the manifest as indented JSON.
func WriteManifest(w io.Writer, m *Manifest) error {
	if m == nil {
		return fmt.Errorf("obs: nil manifest")
	}
	if m.Version == 0 {
		m.Version = ManifestVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	return nil
}
