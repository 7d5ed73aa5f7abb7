// Package sccsim reproduces "Exploring the Design Space for a
// Shared-Cache Multiprocessor" (Nayfeh & Olukotun, ISCA 1994): a
// cluster-based multiprocessor in which the processors of each cluster
// share a banked, multi-ported cluster cache (SCC), four clusters are
// kept coherent over a snoopy invalidation bus, and the design question
// is how to split silicon between processors and cache.
//
// The package is a facade over the internal substrates:
//
//   - a trace-driven multiprocessor memory-system simulator (banked SCCs
//     with bank-contention timing, write buffers, a snoopy
//     write-invalidate bus, per-processor virtual-time interleaving);
//   - real implementations of the paper's workloads that emit their own
//     reference streams: Barnes-Hut (octree N-body), MP3D (particle-in-
//     cell hypersonic flow), supernodal sparse Cholesky on a
//     BCSSTK14-like matrix, and an eight-application SPEC92-analogue
//     multiprogramming workload with a round-robin scheduler;
//   - the Section 4 implementation-cost model (chip areas, FO4 cycle
//     budget, pad counts) and the Section 5 pipeline load-latency model;
//   - sweep, comparison and reporting helpers that regenerate every
//     table and figure of the paper's evaluation.
//
// Quick start:
//
//	grid, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut,
//		sccsim.WithScale(sccsim.QuickScale()))
//	if err != nil { ... }
//	fmt.Print(sccsim.SpeedupTable(grid)) // the paper's Table 3
//
// Sweeps run on a concurrent engine: independent design points are
// distributed over a bounded worker pool (WithParallelism; default
// GOMAXPROCS) that shares one immutable trace per processor count, and
// the assembled grid is byte-identical to a serial run.
package sccsim

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"sccsim/internal/area"
	"sccsim/internal/costperf"
	"sccsim/internal/explorer"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/report"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
	"sccsim/internal/workload/multiprog"
)

// Config is one point in the processor-cache design space: cluster count,
// processors per cluster, SCC size, associativity and load latency.
type Config = sysmodel.Config

// Options tunes simulator behaviour (write-buffer depth, bus-occupancy
// ablation, context-switch penalty). The zero value is the paper's model.
type Options = sim.Options

// Result is the outcome of one simulation run: execution time, per-
// processor stall breakdowns, cache statistics and coherence traffic.
type Result = sim.Result

// Workload names one of the paper's four benchmarks.
type Workload = explorer.Workload

// The paper's benchmarks.
const (
	BarnesHut = explorer.BarnesHut
	MP3D      = explorer.MP3D
	Cholesky  = explorer.Cholesky
	Multiprog = explorer.Multiprog
)

// AllWorkloads lists every benchmark.
var AllWorkloads = explorer.AllWorkloads

// ParseWorkload maps a workload name ("barnes-hut", "mp3d", "cholesky",
// "multiprog") to its Workload, validating it against AllWorkloads —
// the boundary check for callers that receive workload names as
// strings.
func ParseWorkload(name string) (Workload, error) {
	return explorer.ParseWorkload(name)
}

// Scale sets problem sizes; the zero value is the paper's configuration.
type Scale = explorer.Scale

// Grid is a full design-space sweep for one workload.
type Grid = explorer.Grid

// Point is one simulated design point.
type Point = explorer.Point

// PaperScale returns the paper's problem sizes (1024 bodies, 10,000
// particles / 5 steps, BCSSTK14-scale matrix, scaled multiprogramming
// reference budget).
func PaperScale() Scale { return Scale{Seed: 1} }

// QuickScale returns a ~20x reduced configuration for interactive use
// and tests.
func QuickScale() Scale { return explorer.QuickScale() }

// DefaultConfig returns the paper's base system for a processors-per-
// cluster value and SCC size: four clusters and the load latency implied
// by the Section 4 implementation.
func DefaultConfig(procsPerCluster, sccBytes int) Config {
	return sysmodel.Default(procsPerCluster, sccBytes)
}

// Axes bundles the architecture axes that widen the paper's design
// space beyond (size, processors): cache line size, associativity,
// replacement policy, and the shared/private/hybrid hierarchy. The zero
// value means the paper's defaults, and applying it changes nothing —
// sweeps without axes reproduce the historical grids byte for byte.
type Axes = sysmodel.Axes

// Replacement policies for the Axes.Repl / Config.Repl axis.
const (
	ReplLRU    = sysmodel.ReplLRU
	ReplRandom = sysmodel.ReplRandom
)

// Cache hierarchies for the Axes.Hierarchy / Config.Hierarchy axis:
// the paper's shared cluster cache, the private per-processor
// alternative (Section 2.1), and the hybrid (private L1s backed by the
// shared SCC).
const (
	HierarchyShared  = sysmodel.HierarchyShared
	HierarchyPrivate = sysmodel.HierarchyPrivate
	HierarchyHybrid  = sysmodel.HierarchyHybrid
)

// DefaultL1Bytes is the hybrid hierarchy's default per-processor L1
// size.
const DefaultL1Bytes = sysmodel.DefaultL1Bytes

// SCCSizes is the paper's cache-size sweep (4 KB - 512 KB).
var SCCSizes = sysmodel.SCCSizes

// ProcsPerClusterSweep is the paper's processor sweep (1, 2, 4, 8).
var ProcsPerClusterSweep = sysmodel.ProcsPerClusterSweep

// Progress is one progress event from the concurrent sweep engine,
// delivered after each completed design point.
type Progress = explorer.Progress

// expCfg is the resolved configuration of one Do/SweepCtx experiment.
type expCfg struct {
	scale Scale
	sim   Options
	// simSet records that WithSimOptions was used (the zero Options is
	// also the default, so presence needs its own bit — the analytic
	// backend rejects simulator tuning).
	simSet  bool
	backend Backend
	cfg     *Config
	// axes overlays architecture-axis overrides (line size,
	// associativity, replacement, hierarchy) on every configuration the
	// experiment builds; the zero value changes nothing (see WithAxes).
	axes        sysmodel.Axes
	ppc, scc    int
	parallelism int
	progress    func(Progress)
	// searchProgress receives live stage updates from SearchCtx (see
	// WithSearchProgress); sweeps ignore it.
	searchProgress func(SearchProgress)
	// verify, when set, attaches the coherence invariant checker to
	// every simulation the experiment runs (see WithVerify).
	verify bool
	// traceStore, when set, is the persistent trace cache sweeps
	// consult before generating a trace (see WithTraceStore).
	traceStore TraceStore
	// remote, when set, executes sweep design points on other nodes
	// (see WithCluster).
	remote Remote

	// Observability (see manifest.go): all nil by default — the
	// simulator and engine then skip every instrumentation site.
	metrics   *Metrics
	reportFn  func(SweepReport)
	manifestW io.Writer
	traceW    io.Writer
	// logger receives structured experiment logs; requestID correlates
	// this experiment's artifacts (log lines, manifest) with the HTTP
	// request that caused it (see WithLogger / WithRequestID).
	logger    *slog.Logger
	requestID string
}

// Opt configures an experiment run by Do, SweepCtx or
// BuildCostPerfEntryCtx.
type Opt func(*expCfg)

// WithScale sets the problem sizes (default: PaperScale).
func WithScale(s Scale) Opt { return func(c *expCfg) { c.scale = s } }

// WithSimOptions sets simulator options beyond the architectural
// configuration (write-buffer depth, ablations; default: the paper's
// model). Exact backend only.
func WithSimOptions(o Options) Opt { return func(c *expCfg) { c.sim, c.simSet = o, true } }

// WithConfig pins Do to an arbitrary design point (cluster count,
// associativity, load latency all free). Overrides WithPoint. Only
// parallel workloads accept an explicit Config.
func WithConfig(cfg Config) Opt { return func(c *expCfg) { c.cfg = &cfg } }

// WithPoint sets Do's design point on the paper's default system:
// four clusters (one for the multiprogramming workload) and the load
// latency implied by the Section 4 implementation. The default point is
// the paper's 1P/64KB baseline.
func WithPoint(procsPerCluster, sccBytes int) Opt {
	return func(c *expCfg) { c.ppc, c.scc = procsPerCluster, sccBytes }
}

// WithAxes overlays architecture-axis overrides — line size,
// associativity, replacement policy, hierarchy, hybrid L1 size — onto
// every design point the experiment builds, composing with WithPoint,
// WithConfig and sweeps alike. The zero Axes changes nothing, so
// default experiments stay byte-identical to the paper's grids. The
// analytic backend models associativity but rejects non-default line
// sizes, random replacement and non-shared hierarchies with an
// actionable error at experiment start.
func WithAxes(a Axes) Opt { return func(c *expCfg) { c.axes = a } }

// WithParallelism bounds the sweep engine's worker pool (default:
// GOMAXPROCS). Results are deterministic — byte-identical rendered
// tables — for every value.
func WithParallelism(n int) Opt { return func(c *expCfg) { c.parallelism = n } }

// WithProgress installs a progress hook, called serially after every
// completed design point.
func WithProgress(fn func(Progress)) Opt { return func(c *expCfg) { c.progress = fn } }

// TraceStore is the trace-cache contract sweeps consult before running
// a workload generator (trace.Store); trace.DiskCache, opened with
// trace.NewDiskCache, is its implementation.
type TraceStore = trace.Store

// WithTraceStore attaches a persistent trace cache: sweeps consult st
// before running a workload generator and populate it after, keyed by
// workload, processor count, problem scale, seed, and the trace-format
// version — so repeated sweeps, including across processes sharing a
// trace.DiskCache directory, skip trace generation entirely. The sweep
// report's TraceDiskHits/TraceGenerated counters say how the cache
// performed.
func WithTraceStore(st TraceStore) Opt { return func(c *expCfg) { c.traceStore = st } }

// WithVerify attaches the coherence invariant checker (internal/verify)
// to every simulation the experiment runs: bus transactions are checked
// against the protocol invariants as they happen and the presence table
// and statistics are audited at end of run, turning any violation into
// an experiment error. Simulation results are unchanged (the checker is
// an observer); runs pay a modest overhead. Composes with
// WithSimOptions in either order.
func WithVerify() Opt { return func(c *expCfg) { c.verify = true } }

// Validate checks an experiment's options without running anything:
// an unknown backend, a combination the chosen backend cannot honor
// (simulator options, verification or trace export with the analytic
// model, axes beyond it), out-of-range axes, or a victim buffer without
// an SCC returns the actionable error Do, SweepCtx and SearchCtx would
// fail with at start. Servers call it before admitting a request, so
// bad input fails their 4xx path, not the run.
func Validate(opts ...Opt) error {
	_, err := resolve(opts)
	return err
}

func resolve(opts []Opt) (expCfg, error) {
	c := expCfg{scale: PaperScale(), ppc: 1, scc: 64 * 1024, backend: BackendExact}
	for _, o := range opts {
		o(&c)
	}
	if c.backend == "" {
		c.backend = BackendExact
	}
	if err := c.validate(); err != nil {
		return c, err
	}
	// Applied after all opts so a later WithSimOptions cannot silently
	// drop an earlier WithVerify or WithMetrics.
	if c.verify && c.sim.Verify == nil {
		c.sim.Verify = &verify.Options{}
	}
	c.sim.Metrics = c.metrics
	// Stamp the request ID onto every log line the experiment emits, so
	// callers never have to remember to do it per site.
	if c.logger != nil && c.requestID != "" {
		c.logger = c.logger.With("request_id", c.requestID)
	}
	return c, nil
}

func (c expCfg) engine() explorer.EngineOptions {
	return explorer.EngineOptions{
		Parallelism: c.parallelism, Progress: c.progress,
		Report: c.reportFn, Metrics: c.metrics,
		Backend: c.backend, Logger: c.logger,
		Axes: c.axes, TraceCache: c.traceStore,
	}
}

// Do evaluates one workload at one design point. The design point
// comes from WithConfig or WithPoint (default: the paper's 1P/64KB
// baseline); problem sizes from WithScale (default: PaperScale); the
// backend from WithBackend (default: the exact simulator). Do resolves
// the point's configuration once and runs it on the same engine path
// as a sweep, so the trace caches, WithTraceStore,
// WithMetrics and WithLogger behave identically on both backends:
// workload traces are generated once per (workload, processors, scale)
// and cached, and the analytic backend shares one reuse-distance
// profile per system shape. A configuration the simulator cannot run
// (Config.Validate) fails before anything is generated or run.
func Do(ctx context.Context, w Workload, opts ...Opt) (*Point, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	cfg := explorer.PointConfig(w, c.ppc, c.scc, c.axes)
	if c.cfg != nil {
		if w == Multiprog {
			return nil, fmt.Errorf("sccsim: WithConfig pins a parallel-workload system; the multiprogramming workload runs on one cluster — use WithPoint")
		}
		cfg = c.axes.Apply(*c.cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sccsim: design point %s: %w", cfg, err)
	}
	if c.logger != nil {
		c.logger.Debug("point start",
			"workload", string(w), "backend", string(c.backend))
	}
	eng := c.engine()
	var ts *obs.TraceSet
	if c.traceW != nil {
		ts, eng.NewTracer = newTraceSet()
	}
	pts, err := explorer.RunConfigs(ctx, w, []Config{cfg}, c.scale, c.sim, eng)
	if err != nil {
		return nil, err
	}
	if ts != nil {
		if err := ts.WriteChrome(c.traceW); err != nil {
			return nil, err
		}
	}
	return pts[0], nil
}

// SweepCtx runs a workload over the full processor-cache design space
// (Figures 2-6 of the paper) on the concurrent sweep engine: the 32
// independent design points are distributed over a bounded worker pool
// (WithParallelism; default GOMAXPROCS) sharing one immutable trace per
// processor count, with deterministic grid assembly — the rendered
// tables are byte-identical to a serial run for any parallelism.
// Cancelling ctx stops the sweep; the first point error cancels the
// remaining points and is returned.
// When WithTraceExport, WithManifest or WithMetrics are set, the sweep
// additionally records per-run timelines (one bounded collector per
// design point) and writes the trace and the versioned run manifest
// after the sweep completes; see manifest.go.
// With WithBackend(BackendAnalytic) every point is predicted from a
// cached reuse-distance profile instead of simulated — same grid, same
// engine, same manifests (stamped with the backend), a fraction of the
// wall time.
func SweepCtx(ctx context.Context, w Workload, opts ...Opt) (*Grid, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	eng := c.engine()
	if c.logger != nil {
		c.logger.Info("sweep start",
			"workload", string(w), "backend", string(c.backend))
		defer func(begin time.Time) {
			if err != nil {
				c.logger.Error("sweep failed", "workload", string(w),
					"backend", string(c.backend), "err", err.Error(),
					"dur_ms", time.Since(begin).Milliseconds())
			} else {
				c.logger.Info("sweep done", "workload", string(w),
					"backend", string(c.backend),
					"dur_ms", time.Since(begin).Milliseconds())
			}
		}(time.Now())
	}

	var ts *obs.TraceSet
	if c.traceW != nil {
		ts, eng.NewTracer = newTraceSet()
	}
	var rep *SweepReport
	if c.manifestW != nil || c.reportFn != nil {
		userReport := c.reportFn
		eng.Report = func(r SweepReport) {
			rep = &r
			if userReport != nil {
				userReport(r)
			}
		}
	}

	if r := c.remote; r != nil {
		// Cluster mode: offer every exact point to the remote executor,
		// simulate locally on failure (see WithCluster).
		eng.Remote = func(ctx context.Context, w Workload, spec explorer.PointSpec) (*Point, error) {
			return r.RunPoint(ctx, w, spec.PPC, spec.SCCBytes)
		}
	}
	g, err := explorer.Sweep(ctx, w, c.scale, c.sim, eng)
	if err != nil {
		return nil, err
	}
	if ts != nil {
		if err = ts.WriteChrome(c.traceW); err != nil {
			return nil, err
		}
	}
	if c.manifestW != nil {
		if err = obs.WriteManifest(c.manifestW, buildManifest(w, c, g, rep)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// BuildCostPerfEntryCtx simulates a workload on the four Section 4
// implementations (1P/64KB, 2P/32KB, 4P/64KB, 8P/128KB) on the
// concurrent sweep engine. The cost/performance tables are the paper's
// headline numbers, so this path is exact-only: selecting the analytic
// backend is an error. An entry reads only cycles, so a point an
// earlier exact run in the process simulated with the same scale and
// simulator options (a grid sweep holds all four) comes from the
// engine's exact-cycles table instead of a new simulation, with the
// same result; WithProgress reports only the points simulated, and
// under WithVerify all four are simulated. ResetTraceCache empties the
// table.
func BuildCostPerfEntryCtx(ctx context.Context, w Workload, opts ...Opt) (*CostPerfEntry, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.backend == BackendAnalytic {
		return nil, fmt.Errorf("sccsim: cost/performance entries require the exact backend")
	}
	return costperf.BuildEntryCtx(ctx, w, c.scale, c.sim, c.engine())
}

// ResetTraceCache drops every cached workload trace and reuse-distance
// profile and every recorded exact cycle count, releasing memory after
// paper-scale experiments; the next search or cost/performance entry
// then simulates every point it confirms.
func ResetTraceCache() { explorer.ResetTraceCache() }

// GenerateTrace builds the raw per-processor reference trace for a
// parallel workload — the substrate a custom experiment can feed to the
// simulator directly.
func GenerateTrace(w Workload, procs int, s Scale) (*trace.Program, error) {
	return explorer.GenerateParallel(w, procs, s)
}

// AnalyzeTrace profiles a trace program (footprint, sharing, write
// fraction).
func AnalyzeTrace(p *trace.Program) *trace.Profile { return trace.Analyze(p) }

// MultiprogApps returns the names of the eight SPEC92-analogue processes.
func MultiprogApps() []string { return multiprog.Names() }

// CostPerfEntry holds one workload's latency-adjusted execution times
// across the four Section 4 cluster implementations.
type CostPerfEntry = costperf.Entry

// SingleChipComparison is the paper's Table 6 result.
type SingleChipComparison = costperf.SingleChip

// CompareSingleChip builds Table 6 from workload entries.
func CompareSingleChip(entries []*CostPerfEntry) *SingleChipComparison {
	return costperf.CompareSingleChip(entries)
}

// MCMComparison is the paper's Table 7 result.
type MCMComparison = costperf.MCM

// CompareMCM builds Table 7 from workload entries.
func CompareMCM(entries []*CostPerfEntry) *MCMComparison {
	return costperf.CompareMCM(entries)
}

// FrontierPoint is one priced design point of the cost/performance
// frontier extension.
type FrontierPoint = costperf.FrontierPoint

// Frontier prices every point of a swept grid with the generalized
// Section 4 implementation rules (area, load latency, feasibility).
func Frontier(g *Grid) []FrontierPoint { return costperf.Frontier(g) }

// BestDesign returns the feasible frontier point with the best
// cost/performance, or nil.
func BestDesign(points []FrontierPoint) *FrontierPoint { return costperf.Best(points) }

// ParetoFront returns the non-dominated feasible frontier points.
func ParetoFront(points []FrontierPoint) []FrontierPoint { return costperf.ParetoFront(points) }

// ChipDesign describes one Section 4 cluster implementation.
type ChipDesign = area.ChipDesign

// ChipDesigns returns the paper's four cluster implementations keyed by
// processors per cluster.
func ChipDesigns() map[int]ChipDesign { return area.Designs() }

// PipelineProfile is a benchmark instruction mix for the load-latency
// model.
type PipelineProfile = pipeline.Profile

// LoadLatencyFactor returns the Table 5 relative-execution-time factor
// for a workload at a load latency of 2, 3 or 4 cycles.
func LoadLatencyFactor(w Workload, loadLatency int) float64 {
	return pipeline.RelTimeFor(string(w), loadLatency)
}

// Rendering helpers (text tables and ASCII figures).
var (
	// SpeedupTable renders a grid as the paper's Table 3.
	SpeedupTable = report.SpeedupTable
	// MissRateTable renders a grid as the paper's Table 4.
	MissRateTable = report.MissRateTable
	// Figure renders a grid as the paper's Figures 2-5.
	Figure = report.Figure
	// SpeedupFigure renders a grid as the paper's Figure 6.
	SpeedupFigure = report.SpeedupFigure
	// InvalidationTable shows coherence-traffic invariance.
	InvalidationTable = report.InvalidationTable
	// RenderTable5 renders the pipeline factors.
	RenderTable5 = report.Table5
	// RenderTable6 renders the single-chip comparison.
	RenderTable6 = report.Table6
	// RenderTable7 renders the MCM comparison.
	RenderTable7 = report.Table7
	// RenderAreaReport renders the Section 4 chip designs.
	RenderAreaReport = report.AreaReport
	// RenderFrontier renders the priced design space.
	RenderFrontier = report.FrontierTable
	// GridCSV renders a grid as CSV for external tooling.
	GridCSV = report.GridCSV
)
