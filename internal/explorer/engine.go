// The concurrent sweep engine: the paper's evaluation is a 7x4
// design-space grid per workload, and every point is an independent
// simulation over an immutable trace. The engine runs those points on a
// bounded worker pool, shares one generated trace per processor count
// through a keyed cache, and returns points in job order so grids and
// the tables rendered from them are byte-identical for every
// parallelism, regardless of completion order.

package explorer

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/workload/multiprog"
)

// Progress is one event from the sweep engine, delivered after each
// completed design point. Events are serialized: Done increases by one
// per event and reaches Total exactly once. The JSON field names are
// part of the serve layer's NDJSON streaming contract.
type Progress struct {
	// Workload the engine is sweeping.
	Workload Workload `json:"workload"`
	// Done and Total count completed and scheduled design points.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Elapsed is wall-clock time since the engine started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Config is the design point that just finished.
	Config sysmodel.Config `json:"config"`
	// PointTime is how long that point's simulation took.
	PointTime time.Duration `json:"point_ns"`
	// QueueWait is how long the point sat scheduled before a worker
	// picked it up.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// TraceHits and TraceMisses are the sweep's cumulative trace-cache
	// counts at the time of the event: a miss resolves a workload trace
	// (from disk or a generator), a hit reuses an in-memory one (the
	// miss count for a whole sweep equals the number of distinct trace
	// keys — each trace is resolved exactly once).
	TraceHits   uint64 `json:"trace_hits"`
	TraceMisses uint64 `json:"trace_misses"`
	// TraceDiskHits counts misses satisfied by the persistent disk cache
	// (EngineOptions.TraceCache); TraceGenerated counts misses that ran
	// a workload generator. DiskHits + Generated == Misses.
	TraceDiskHits  uint64 `json:"trace_disk_hits"`
	TraceGenerated uint64 `json:"trace_generated"`
}

// SweepReport summarizes a completed sweep: wall-clock and per-point
// timings, worker-pool utilization, and trace-cache effectiveness. It
// feeds the run manifest (see the sccsim facade) and the CLI's
// diagnostics.
type SweepReport struct {
	// Workload the engine swept.
	Workload Workload `json:"workload"`
	// Backend that produced the points: "exact" (the cycle simulator)
	// or "analytic" (the reuse-distance model) — stamped so a report is
	// never ambiguous about what kind of numbers it summarizes.
	Backend Backend `json:"backend"`
	// Points is the number of design points run; Workers the pool size.
	Points  int `json:"points"`
	Workers int `json:"workers"`
	// Wall is the whole sweep's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
	// PointWall[i] is design point i's simulation time, in job order
	// (for a sweep, SCC-size-major: the GridSpecs order).
	PointWall []time.Duration `json:"point_wall_ns"`
	// QueueWait[i] is how long point i waited for a worker.
	QueueWait []time.Duration `json:"queue_wait_ns"`
	// Busy is the sum of PointWall — total simulation work done.
	Busy time.Duration `json:"busy_ns"`
	// Utilization is Busy / (Workers * Wall): 1.0 means every worker
	// simulated for the whole sweep.
	Utilization float64 `json:"utilization"`
	// TraceHits and TraceMisses count trace-cache lookups: each miss
	// resolved a workload trace, each hit shared an in-memory one.
	TraceHits   uint64 `json:"trace_hits"`
	TraceMisses uint64 `json:"trace_misses"`
	// TraceDiskHits counts misses satisfied by the persistent disk
	// cache; TraceGenerated counts misses that ran a workload generator.
	// A sweep against a warm disk cache reports TraceGenerated == 0.
	TraceDiskHits  uint64 `json:"trace_disk_hits"`
	TraceGenerated uint64 `json:"trace_generated"`
}

// EngineOptions tunes the concurrent sweep engine. The zero value runs
// one worker per available CPU (GOMAXPROCS) with no progress reporting
// and no instrumentation.
type EngineOptions struct {
	// Parallelism is the worker-pool size; <= 0 means GOMAXPROCS.
	// Results are deterministic for every value.
	Parallelism int
	// Axes overrides the architecture axes (line size, associativity,
	// replacement policy, hierarchy) of every grid point Sweep builds
	// (see PointConfig); RunConfigs runs its configurations as given.
	// The zero value leaves each point exactly as the paper's system,
	// preserving byte-identical grids. Trace resolution is unaffected:
	// the axes change the machine, not the workload, so trace-cache keys
	// do not include them.
	Axes sysmodel.Axes
	// Backend selects how every point is produced — BackendExact (the
	// cycle simulator; also what empty means) or BackendAnalytic (the
	// reuse-distance model) — and is stamped on the SweepReport.
	Backend Backend
	// Progress, when non-nil, is called (serially, from engine
	// goroutines) after every completed design point.
	Progress func(Progress)
	// Report, when non-nil, is called once after a sweep completes
	// successfully with the sweep's telemetry.
	Report func(SweepReport)
	// NewTracer, when non-nil, is called once per design point to build
	// that run's simulator tracer (e.g. an obs collector track). The
	// engine never shares a tracer between concurrent runs.
	NewTracer func(cfg sysmodel.Config) sim.Tracer
	// Metrics, when non-nil, receives live engine counters
	// (explorer.points_done, explorer.trace_cache_{hits,misses},
	// explorer.trace_{disk_hits,generated},
	// explorer.{trace,profile,cycles}_cache_evictions, and
	// explorer.cycles_cache_hits: configurations ExactCycles answered
	// from recorded cycles), the bytes the trace and profile caches and
	// the exact-cycles table hold (gauges
	// explorer.{trace,profile,cycles}_cache_bytes) and a per-point
	// wall-time histogram (explorer.point_ms) — the registry a
	// long-running CLI exposes over expvar.
	Metrics *obs.Registry
	// TraceCache, when non-nil, is a persistent trace store consulted
	// before running a workload generator and populated after: repeated
	// sweeps — across processes — skip generation entirely. The
	// in-memory cache still fronts it, so a warm process touches the
	// store once per distinct trace key. The facade and the HTTP
	// service pass a trace.DiskCache.
	TraceCache trace.Store
	// Remote, when non-nil, executes design points on other nodes: every
	// exact point is offered to Remote first and simulated locally when
	// the call fails or its result fails validation, so a run completes
	// — with identical results — whether the fleet is healthy,
	// degraded, or absent. The analytic backend ignores it.
	Remote RemotePointFunc
	// Logger, when non-nil, receives a debug-level record per completed
	// design point. The facade stamps it with the request ID, so engine
	// logs are joinable to the request that ran the sweep.
	Logger *slog.Logger
}

func (o EngineOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// pointJob is one design point scheduled on the engine. run receives the
// point's tracer (nil unless EngineOptions.NewTracer is set) and wires
// it into the simulator options.
type pointJob struct {
	cfg sysmodel.Config
	run func(ctx context.Context, tr sim.Tracer) (*Point, error)
}

// traceSource says how a trace-cache lookup resolved.
type traceSource int

const (
	// traceShared: the in-memory cache already had (or was resolving)
	// the trace.
	traceShared traceSource = iota
	// traceFromDisk: this lookup loaded the trace from the persistent
	// disk cache.
	traceFromDisk
	// traceGenerated: this lookup ran the workload generator.
	traceGenerated
)

// traceCounters accumulates one sweep's trace-cache lookups; jobs record
// into it and the engine folds the totals into Progress events and the
// SweepReport. A nil receiver no-ops.
type traceCounters struct {
	hits, misses        atomic.Uint64
	diskHits, generated atomic.Uint64
	reg                 *obs.Registry
}

// record notes one cache lookup. A memory-level hit shares an
// already-resolved trace; a miss resolved it from disk or a generator.
func (t *traceCounters) record(src traceSource) {
	if t == nil {
		return
	}
	switch src {
	case traceShared:
		t.hits.Add(1)
		t.reg.Counter("explorer.trace_cache_hits").Inc()
	case traceFromDisk:
		t.misses.Add(1)
		t.diskHits.Add(1)
		t.reg.Counter("explorer.trace_cache_misses").Inc()
		t.reg.Counter("explorer.trace_disk_hits").Inc()
	default:
		t.misses.Add(1)
		t.generated.Add(1)
		t.reg.Counter("explorer.trace_cache_misses").Inc()
		t.reg.Counter("explorer.trace_generated").Inc()
	}
}

// noteCache publishes a memo's held bytes and the evictions one lookup
// caused, as the gauge explorer.<name>_cache_bytes and the counter
// explorer.<name>_cache_evictions.
func (t *traceCounters) noteCache(name string, held int64, evicted int) {
	if t == nil || t.reg == nil {
		return
	}
	t.reg.Gauge("explorer." + name + "_cache_bytes").Set(held)
	t.reg.Counter("explorer." + name + "_cache_evictions").Add(uint64(evicted))
}

// loads returns the current (hits, misses, diskHits, generated).
func (t *traceCounters) loads() (hits, misses, diskHits, generated uint64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.hits.Load(), t.misses.Load(), t.diskHits.Load(), t.generated.Load()
}

// pointWallBucketsMS is the fixed bucket layout (milliseconds) of the
// engine's per-point wall-time histogram — the canonical latency layout
// shared with the HTTP middleware.
var pointWallBucketsMS = obs.LatencyBucketsMS

// runPoints executes the jobs on a bounded worker pool and returns their
// results in job order. On the first job error the engine cancels the
// remaining jobs and returns that error; results are nil on failure.
func runPoints(ctx context.Context, w Workload, jobs []pointJob, eng EngineOptions, tc *traceCounters) ([]*Point, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := eng.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*Point, len(jobs))
	errs := make([]error, len(jobs))
	pointWall := make([]time.Duration, len(jobs))
	queueWait := make([]time.Duration, len(jobs))
	idxCh := make(chan int)
	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes progress events
		done int
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					continue
				}
				t0 := time.Now()
				queueWait[idx] = t0.Sub(start)
				var tr sim.Tracer
				if eng.NewTracer != nil {
					tr = eng.NewTracer(jobs[idx].cfg)
				}
				pt, err := jobs[idx].run(ctx, tr)
				if err != nil {
					errs[idx] = err
					cancel()
					continue
				}
				pointWall[idx] = time.Since(t0)
				results[idx] = pt
				if m := eng.Metrics; m != nil {
					m.Counter("explorer.points_done").Inc()
					m.Histogram("explorer.point_ms", pointWallBucketsMS).
						Observe(uint64(pointWall[idx].Milliseconds()))
				}
				if eng.Logger != nil {
					eng.Logger.Debug("point done",
						"workload", string(w),
						"clusters", pt.Config.Clusters,
						"procs_per_cluster", pt.Config.ProcsPerCluster,
						"scc_bytes", pt.Config.SCCBytes,
						"wall_ms", pointWall[idx].Milliseconds())
				}
				if eng.Progress != nil {
					hits, misses, diskHits, generated := tc.loads()
					mu.Lock()
					done++
					eng.Progress(Progress{
						Workload: w,
						Done:     done, Total: len(jobs),
						Elapsed:        time.Since(start),
						Config:         pt.Config,
						PointTime:      pointWall[idx],
						QueueWait:      queueWait[idx],
						TraceHits:      hits,
						TraceMisses:    misses,
						TraceDiskHits:  diskHits,
						TraceGenerated: generated,
					})
					mu.Unlock()
				}
			}
		}()
	}
	for idx := range jobs {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()

	// First-error propagation: prefer the job that actually failed over
	// jobs that merely observed the resulting cancellation, and report
	// the lowest job index among those for determinism.
	var firstCtx error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCtx == nil {
				firstCtx = err
			}
			continue
		}
		return nil, err
	}
	if firstCtx != nil {
		return nil, firstCtx
	}
	if eng.Report != nil {
		wall := time.Since(start)
		var busy time.Duration
		for _, d := range pointWall {
			busy += d
		}
		util := 0.0
		if wall > 0 && workers > 0 {
			util = float64(busy) / (float64(workers) * float64(wall))
		}
		hits, misses, diskHits, generated := tc.loads()
		backend := eng.Backend
		if backend == "" {
			backend = BackendExact
		}
		eng.Report(SweepReport{
			Workload: w, Backend: backend,
			Points: len(jobs), Workers: workers,
			Wall:      wall,
			PointWall: pointWall,
			QueueWait: queueWait,
			Busy:      busy, Utilization: util,
			TraceHits: hits, TraceMisses: misses,
			TraceDiskHits: diskHits, TraceGenerated: generated,
		})
	}
	return results, nil
}

// ---- Trace and profile memos ----
//
// Traces are immutable once generated (see trace.Program) and the
// simulator never mutates them (see sim.Run), so one generated program
// can back every design point — and every concurrent worker — that
// shares its store key; the reuse-distance profiles derived from a
// trace are immutable the same way (see analytic.go). The memos persist
// across engine calls, so e.g. the cost/performance entries reuse the
// programs a full sweep already generated. The exact-cycles table
// (cycles.go) is a third memo with the same lifetime.

// memoMinCharge is the least a trace or profile entry is charged,
// whatever its value's size: failed resolutions and tiny values stay
// bounded, at most budget/memoMinCharge entries per memo.
const memoMinCharge = 64 << 10

// memo resolves each key once: concurrent requesters of a key block on
// the first resolution instead of duplicating it, and later ones share
// its value or its error. Each resolved entry is charged its value's
// size, and at least minCharge; a resolution that takes the total past
// budget evicts resolved entries, least recently used first, until the
// total fits or only the entry just resolved and entries still
// resolving remain. Values already handed out stay valid: they are
// just pointers the callers hold.
type memo[K comparable, V any] struct {
	budget, minCharge int64
	// size measures a value; nil charges every entry minCharge.
	size func(V) int64

	mu      sync.Mutex
	entries map[K]*memoEntry[K, V]
	// lru links the entries, most recently used first; lru.next is the
	// front and lru.prev the back.
	lru   memoEntry[K, V]
	bytes int64
}

type memoEntry[K comparable, V any] struct {
	key        K
	prev, next *memoEntry[K, V]
	// charge is the entry's share of the memo's bytes; 0 while its
	// resolution runs.
	charge int64

	once sync.Once
	val  V
	err  error
}

// get returns key's value, calling resolve to produce it unless an
// earlier call has: resolve runs at most once per key while the entry
// lasts. evicted counts the entries this call's resolution pushed out.
func (m *memo[K, V]) get(key K, resolve func() (V, error)) (v V, evicted int, err error) {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[K]*memoEntry[K, V])
		m.lru.prev, m.lru.next = &m.lru, &m.lru
	}
	e, ok := m.entries[key]
	if ok {
		e.unlink()
	} else {
		e = &memoEntry[K, V]{key: key}
		m.entries[key] = e
	}
	m.pushFront(e)
	m.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = resolve()
		evicted = m.charge(e)
	})
	return e.val, evicted, e.err
}

// peek returns key's value when an earlier get resolved it without an
// error, and moves its entry to the front. It never resolves a key or
// adds an entry.
func (m *memo[K, V]) peek(key K) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	// charge is set under mu once the entry resolved, after val and err.
	if !ok || e.charge == 0 || e.err != nil {
		return v, false
	}
	e.unlink()
	m.pushFront(e)
	return e.val, true
}

// pushFront links an unlisted e at the front of the list; m.mu must be
// held.
func (m *memo[K, V]) pushFront(e *memoEntry[K, V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// charge bills a freshly resolved entry and evicts from the back of the
// list past the budget, returning how many entries it evicted. An
// entry a reset dropped while it resolved is not billed.
func (m *memo[K, V]) charge(e *memoEntry[K, V]) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[e.key] != e {
		return 0
	}
	e.charge = m.minCharge
	if e.err == nil && m.size != nil {
		e.charge = max(e.charge, m.size(e.val))
	}
	m.bytes += e.charge
	n := 0
	for v := m.lru.prev; m.bytes > m.budget && v != &m.lru; {
		prev := v.prev
		if v != e && v.charge > 0 {
			v.unlink()
			delete(m.entries, v.key)
			m.bytes -= v.charge
			n++
		}
		v = prev
	}
	return n
}

func (e *memoEntry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// heldBytes returns the bytes charged to the memo's resolved entries.
func (m *memo[K, V]) heldBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// reset drops every entry. The list goes with the map, so nothing the
// memo held stays reachable from it.
func (m *memo[K, V]) reset() {
	m.mu.Lock()
	m.entries, m.bytes = nil, 0
	m.lru.prev, m.lru.next = nil, nil
	m.mu.Unlock()
}

// The memos' budgets, each well above the working set of every
// benchmark workload: paper-scale grid-shared replays traces charged
// 278 MB (259 MB of references), and serve-mixed's 36 cold keys hold
// QuickScale traces charged 82 MB (75 MB of references) and 74 MiB of
// profiles (2 MiB of histograms each, plus 0.01-0.1 MiB of query
// form).
const (
	traceCacheBudget   = 1 << 30
	profileCacheBudget = 256 << 20
)

// traces holds every resolved trace under its store key; a
// multiprogramming set is held in its store container
// (processesToProgram).
var traces = memo[string, *trace.Program]{budget: traceCacheBudget, minCharge: memoMinCharge, size: (*trace.Program).HeapBytes}

// ResetTraceCache drops every cached trace program, every cached
// reuse-distance profile (profiles are derived from traces and sized
// like them) and every recorded exact cycle count (see ExactCycles).
// Useful to release memory after paper-scale sweeps, and to make the
// next exact run simulate every point.
func ResetTraceCache() {
	traces.reset()
	profiles.reset()
	cycles.reset()
}

// parallelDiskKey is the persistent-cache key for a parallel workload
// trace: everything that determines the trace's content — the on-disk
// format version (so a format change invalidates old entries), the
// workload, the processor count, and the full problem scale including
// the seed. MultiprogRefs is deliberately excluded: it does not affect
// parallel-trace generation, and keying on it would fracture the cache.
func parallelDiskKey(w Workload, procs int, s Scale) string {
	return fmt.Sprintf("scct%d-%s-p%d-seed%d-bb%d-bs%d-mp%d-ms%d-cw%d-ch%d",
		trace.FormatVersion, w, procs, s.Seed, s.BarnesBodies, s.BarnesSteps,
		s.MP3DParticles, s.MP3DSteps, s.CholeskyGridW, s.CholeskyGridH)
}

// multiprogDiskKey is the persistent-cache key for the eight-process
// multiprogramming trace set.
func multiprogDiskKey(refs int, seed int64) string {
	return fmt.Sprintf("scct%d-multiprog-refs%d-seed%d", trace.FormatVersion, refs, seed)
}

// processesToProgram packs a multiprogramming process set into a
// single-processor Program — one phase per process, the phase name
// carrying the process name — a lossless container in the format the
// disk cache stores.
func processesToProgram(pset []sim.Process) *trace.Program {
	p := &trace.Program{Name: "multiprog", Procs: 1, Phases: make([]trace.Phase, len(pset))}
	for i, ps := range pset {
		p.Phases[i] = trace.Phase{Name: ps.Name, Streams: [][]mem.Ref{ps.Refs}}
	}
	return p
}

// programToProcesses inverts processesToProgram for a single-processor
// program. The processes share the program's streams.
func programToProcesses(p *trace.Program) []sim.Process {
	pset := make([]sim.Process, len(p.Phases))
	for i, ph := range p.Phases {
		pset[i] = sim.Process{Name: ph.Name, Refs: ph.Streams[0]}
	}
	return pset
}

// traceFor resolves the trace workload w replays on procs processors
// and returns it with its store key: a parallel workload's program for
// that processor count, or for Multiprog the process set in its
// single-processor container, whatever procs is. Each key resolves
// once per memo lifetime, from dc when dc holds a program of the key's
// shape, else from the generator, whose output is then offered to dc.
// A stored program of another shape is a corrupt entry, so a miss. dc
// may be nil (no persistent store). tc records how the lookup resolved:
// traceShared when the memo already had (or was resolving) the trace,
// traceFromDisk or traceGenerated when this call resolved it.
func traceFor(w Workload, procs int, s Scale, tc *traceCounters, dc trace.Store) (*trace.Program, string, error) {
	key, shape := traceKey(w, procs, s)
	generate := func() (*trace.Program, error) { return GenerateParallel(w, procs, s) }
	if w == Multiprog {
		generate = func() (*trace.Program, error) {
			pset, err := multiprog.Generate(multiprog.Params{RefsPerApp: multiprogRefs(s), Seed: s.Seed})
			if err != nil {
				return nil, err
			}
			return processesToProgram(pset), nil
		}
	}
	src := traceShared
	prog, evicted, err := traces.get(key, func() (*trace.Program, error) {
		if dc != nil {
			if p, _ := dc.Load(key); p != nil && p.Procs == shape {
				src = traceFromDisk
				return p, nil
			}
		}
		src = traceGenerated
		p, err := generate()
		if err == nil && dc != nil {
			// Best-effort: a failed store only costs a later regeneration.
			_ = dc.Store(key, p)
		}
		return p, err
	})
	tc.noteCache("trace", traces.heldBytes(), evicted)
	if err != nil {
		return nil, "", err
	}
	tc.record(src)
	return prog, key, nil
}

// traceKey returns the store key of the trace workload w replays on
// procs processors, and the processor count a program stored under it
// has: procs for a parallel workload, 1 for the multiprogramming set's
// container, whatever procs is.
func traceKey(w Workload, procs int, s Scale) (key string, shape int) {
	if w == Multiprog {
		return multiprogDiskKey(multiprogRefs(s), s.Seed), 1
	}
	return parallelDiskKey(w, procs, s), procs
}

// multiprogRefs applies the default per-app reference budget.
func multiprogRefs(s Scale) int {
	if s.MultiprogRefs != 0 {
		return s.MultiprogRefs
	}
	return multiprog.DefaultRefsPerApp
}

// ---- The run path ----

// PointSpec names one (processors per cluster, SCC size) design point.
type PointSpec struct {
	PPC, SCCBytes int
}

// RunConfigs runs workload w at every configuration on the engine's
// worker pool and returns the points in input order, whatever the
// parallelism. It is the one run path behind every sweep, point,
// search and cost/performance entry: eng.Backend picks how each point
// is produced, eng.Remote (exact backend) is offered each point first,
// and every point shares the trace cache, the persistent trace store,
// the metrics and the progress and report hooks. It always runs every
// configuration; on the exact backend it then records each point's
// cycles for ExactCycles. The analytic backend rejects, before any
// work, configurations it cannot model (see AnalyticSupports).
func RunConfigs(ctx context.Context, w Workload, cfgs []sysmodel.Config, s Scale, opts sim.Options, eng EngineOptions) ([]*Point, error) {
	tc := &traceCounters{reg: eng.Metrics}
	jobs := make([]pointJob, len(cfgs))
	for i, cfg := range cfgs {
		job, err := newJob(w, cfg, s, opts, eng, tc)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	points, err := runPoints(ctx, w, jobs, eng, tc)
	if err == nil && eng.Backend != BackendAnalytic {
		recordCycles(w, cfgs, s, opts, points, tc)
	}
	return points, err
}

// Sweep runs workload w over the full design-space grid — RunConfigs
// over GridSpecs() on the paper's system with eng.Axes applied — and
// lays the in-order points out as the grid (assembleGrid). A point a
// remote worker served passed checkPoint against its configuration
// before RunConfigs returned it, so the grid is the same bytes whether
// its points ran here or on remote workers.
func Sweep(ctx context.Context, w Workload, s Scale, opts sim.Options, eng EngineOptions) (*Grid, error) {
	specs := GridSpecs()
	cfgs := make([]sysmodel.Config, len(specs))
	for i, sp := range specs {
		cfgs[i] = PointConfig(w, sp.PPC, sp.SCCBytes, eng.Axes)
	}
	points, err := RunConfigs(ctx, w, cfgs, s, opts, eng)
	if err != nil {
		return nil, err
	}
	return assembleGrid(w, points), nil
}

// newJob builds the engine job for one configuration on the selected
// backend.
func newJob(w Workload, cfg sysmodel.Config, s Scale, opts sim.Options, eng EngineOptions, tc *traceCounters) (pointJob, error) {
	switch eng.Backend {
	case "", BackendExact:
		run := func(_ context.Context, tr sim.Tracer) (*Point, error) {
			return exactPoint(w, cfg, s, opts, tr, tc, eng.TraceCache)
		}
		if eng.Remote != nil {
			run = offerRemote(w, cfg, eng, run)
		}
		return pointJob{cfg: cfg, run: run}, nil
	case BackendAnalytic:
		if err := AnalyticSupports(cfg); err != nil {
			return pointJob{}, err
		}
		if w == Multiprog && cfg.Clusters != 1 {
			// The scheduled profile models the processes sharing one SCC;
			// it has no second cluster to predict.
			return pointJob{}, fmt.Errorf("explorer: analytic backend models %s on one cluster only (got clusters=%d); use the exact backend",
				w, cfg.Clusters)
		}
		return pointJob{cfg: cfg, run: func(context.Context, sim.Tracer) (*Point, error) {
			return analyticPoint(w, cfg, s, tc, eng.TraceCache)
		}}, nil
	}
	_, err := ParseBackend(string(eng.Backend))
	return pointJob{}, err
}

// exactPoint simulates one configuration over the shared trace for its
// processor count (multiprogramming: the shared eight-process set).
// tr, the engine-built tracer, replaces any opts.Tracer; without one a
// caller's tracer is kept.
func exactPoint(w Workload, cfg sysmodel.Config, s Scale, opts sim.Options, tr sim.Tracer, tc *traceCounters, dc trace.Store) (*Point, error) {
	if tr != nil {
		opts.Tracer = tr
	}
	prog, _, err := traceFor(w, cfg.Procs(), s, tc, dc)
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	if w == Multiprog {
		res, err = sim.RunMultiprog(cfg, opts, programToProcesses(prog), multiprog.Quantum(multiprogRefs(s)))
	} else {
		res, err = sim.Run(cfg, opts, prog)
	}
	if err != nil {
		return nil, fmt.Errorf("explorer: %s at %v: %w", w, cfg, err)
	}
	return &Point{Config: cfg, Result: res}, nil
}

// assembleGrid lays the engine's in-order point slice out as the
// [size][ppc] grid. Job order is size-major (GridSpecs).
func assembleGrid(w Workload, points []*Point) *Grid {
	g := &Grid{Workload: w, Points: make([][]*Point, len(sysmodel.SCCSizes))}
	i := 0
	for si := range sysmodel.SCCSizes {
		g.Points[si] = make([]*Point, len(sysmodel.ProcsPerClusterSweep))
		for pi := range sysmodel.ProcsPerClusterSweep {
			g.Points[si][pi] = points[i]
			i++
		}
	}
	return g
}

// SortedPointSpecs returns the specs in (ppc, size) order — a helper for
// callers that build point sets from maps and need deterministic job
// order.
func SortedPointSpecs(m map[int]int) []PointSpec {
	specs := make([]PointSpec, 0, len(m))
	for ppc, size := range m {
		specs = append(specs, PointSpec{ppc, size})
	}
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].PPC != specs[j].PPC {
			return specs[i].PPC < specs[j].PPC
		}
		return specs[i].SCCBytes < specs[j].SCCBytes
	})
	return specs
}
