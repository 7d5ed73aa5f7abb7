// Run manifests and trace export: the facade-level wiring that turns a
// sweep into durable, machine-readable artifacts — a versioned JSON
// manifest (what ran, where, how fast, what came out) and a Chrome
// trace_event timeline openable in Perfetto or chrome://tracing.
package sccsim

import (
	"io"
	"log/slog"
	"runtime"
	"time"

	"sccsim/internal/explorer"
	"sccsim/internal/obs"
	"sccsim/internal/sim"
	"sccsim/internal/stats"
	"sccsim/internal/sysmodel"
)

// Metrics is a process-wide metrics registry (counters, gauges,
// histograms). A nil registry — the default everywhere — disables every
// metric site at the cost of one branch, so the simulator hot path pays
// nothing when observability is off. Expose a registry's Snapshot over
// expvar for live inspection (see cmd/sccexplore -debug-addr).
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// SweepReport is the engine telemetry of one completed sweep: wall and
// per-point timings, worker utilization, trace-cache hit/miss counts.
type SweepReport = explorer.SweepReport

// RunManifest is the versioned, machine-readable record of a sweep; see
// WithManifest.
type RunManifest = obs.Manifest

// WithMetrics points the experiment at a metrics registry: the engine
// and simulator record counters and timing histograms into it. Nil (the
// default) disables all metric sites.
func WithMetrics(m *Metrics) Opt { return func(c *expCfg) { c.metrics = m } }

// WithLogger attaches a structured logger to the experiment: sweep
// start/finish and per-point completion become slog records on it, each
// stamped with the request ID when WithRequestID is also set. Nil (the
// default) disables every log site at the cost of one branch, matching
// the metrics registry's zero-overhead contract.
func WithLogger(l *slog.Logger) Opt { return func(c *expCfg) { c.logger = l } }

// WithRequestID tags the experiment with the request that caused it:
// the ID is appended to every WithLogger record and stamped into the
// run manifest (RunManifest.RequestID), making a sweep's artifacts
// joinable to the HTTP request — and its log lines — that produced
// them. Empty (the default) leaves both untouched.
func WithRequestID(id string) Opt { return func(c *expCfg) { c.requestID = id } }

// WithSweepReport installs a telemetry hook called once after a sweep
// (or Do's single point) completes successfully.
func WithSweepReport(fn func(SweepReport)) Opt { return func(c *expCfg) { c.reportFn = fn } }

// WithManifest makes SweepCtx write a versioned JSON run manifest
// (schema obs.ManifestVersion) to w after the sweep completes: host and
// toolchain, scale, per-point simulator statistics and wall times,
// engine utilization, trace-cache effectiveness, and — when WithMetrics
// is also set — a registry snapshot.
func WithManifest(w io.Writer) Opt { return func(c *expCfg) { c.manifestW = w } }

// WithTraceExport makes the experiment record simulator timeline events
// (SCC hits and misses, bank-conflict and write-buffer stalls, lock and
// bus activity) and write them to w as Chrome trace_event JSON when the
// run completes. Each design point becomes a trace process whose tracks
// are its processors and cluster buses; open the file in Perfetto or
// chrome://tracing. Event buffers are bounded per design point
// (obs.DefaultCollectorCap); overflow is dropped and counted in the
// export's process metadata.
func WithTraceExport(w io.Writer) Opt { return func(c *expCfg) { c.traceW = w } }

// newTraceSet builds the trace set for an experiment and the per-run
// tracer factory the engine calls once per design point.
func newTraceSet() (*obs.TraceSet, func(cfg Config) sim.Tracer) {
	ts := obs.NewTraceSet(sim.EventKindNames[:])
	return ts, func(cfg Config) sim.Tracer {
		col := ts.NewCollector(cfg.String(), 0)
		procs := cfg.Procs()
		for p := 0; p < procs; p++ {
			col.SetTrackName(int32(p), "cpu "+itoa(p))
		}
		for cl := 0; cl < cfg.Clusters; cl++ {
			col.SetTrackName(int32(procs+cl), "bus (cluster "+itoa(cl)+")")
		}
		return col
	}
}

// itoa is strconv.Itoa for the tiny values above, avoiding the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// buildManifest assembles the run manifest from a completed sweep.
// rep may be nil when the engine produced no report (it always does for
// SweepCtx, but the builder stays defensive).
func buildManifest(w Workload, c expCfg, g *Grid, rep *SweepReport) *RunManifest {
	m := &RunManifest{
		Version:   obs.ManifestVersion,
		Tool:      "sccsim",
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host: obs.Host{
			OS: runtime.GOOS, Arch: runtime.GOARCH,
			CPUs: runtime.NumCPU(), GoVersion: runtime.Version(),
		},
		Workload:    string(w),
		Backend:     string(c.backend),
		RequestID:   c.requestID,
		Scale:       c.scale,
		Parallelism: c.parallelism,
		Grid: obs.GridAxes{
			SCCBytes:        append([]int(nil), sysmodel.SCCSizes...),
			ProcsPerCluster: append([]int(nil), sysmodel.ProcsPerClusterSweep...),
		},
	}
	agg := obs.Aggregate{}
	i := 0
	for _, row := range g.Points {
		for _, pt := range row {
			r := pt.Result
			rec := obs.PointRecord{
				ProcsPerCluster: pt.Config.ProcsPerCluster,
				SCCBytes:        pt.Config.SCCBytes,
				Clusters:        pt.Config.Clusters,
				Backend:         string(c.backend),
				Cycles:          r.Cycles,
				Refs:            r.Refs,
				ReadMissRate:    r.ReadMissRate(),
				ReadStallCycles: r.TotalReadStall(),
				BankStallCycles: r.TotalBankStall(),
			}
			for _, v := range r.WriteStall {
				rec.WriteStallCycles += v
			}
			if r.Snoop != nil {
				rec.BusFetches = r.Snoop.Fetches
				rec.Invalidations = r.Snoop.Invalidations
			}
			// Job order is SCC-size-major, matching the grid rows.
			if rep != nil && i < len(rep.PointWall) {
				rec.WallNanos = rep.PointWall[i].Nanoseconds()
				rec.QueueWaitNanos = rep.QueueWait[i].Nanoseconds()
				if us := float64(rec.WallNanos) / 1e3; us > 0 {
					rec.SimCyclesPerMicro = float64(r.Cycles) / us
				}
			}
			m.Points = append(m.Points, rec)
			agg.Points++
			agg.Refs += rec.Refs
			agg.BusFetches += rec.BusFetches
			agg.Invalidations += rec.Invalidations
			if agg.BestCycles == 0 || rec.Cycles < agg.BestCycles {
				agg.BestCycles = rec.Cycles
			}
			if rec.Cycles > agg.WorstCycles {
				agg.WorstCycles = rec.Cycles
			}
			i++
		}
	}
	m.Aggregate = agg
	if rep != nil {
		walls := make([]float64, len(rep.PointWall))
		var queue time.Duration
		for i, d := range rep.PointWall {
			walls[i] = float64(d.Nanoseconds())
		}
		for _, d := range rep.QueueWait {
			queue += d
		}
		m.Sweep = obs.SweepStats{
			WallNanos:        rep.Wall.Nanoseconds(),
			Workers:          rep.Workers,
			Utilization:      rep.Utilization,
			QueueWaitNanos:   queue.Nanoseconds(),
			PointWallP50:     int64(stats.Percentile(walls, 50)),
			PointWallP95:     int64(stats.Percentile(walls, 95)),
			TraceCacheHits:   rep.TraceHits,
			TraceCacheMisses: rep.TraceMisses,
			TraceDiskHits:    rep.TraceDiskHits,
			TraceGenerated:   rep.TraceGenerated,
		}
	}
	if c.metrics != nil {
		m.Metrics = c.metrics.Snapshot()
	}
	return m
}
