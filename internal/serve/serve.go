// Package serve is the sweep-as-a-service layer: an HTTP/JSON front end
// over the sccsim facade that turns the one-shot design-space API into
// a long-running service. POST /v1/sweep and /v1/point accept a
// declarative experiment (workload, scale, simulator options) and
// return the same grids and points the library produces — byte-
// identical JSON — while the service adds what a CLI never needed:
//
//   - a bounded job queue with backpressure: admissions beyond the
//     queue depth are shed with 429 and a Retry-After hint instead of
//     piling up;
//   - in-flight request coalescing: every request resolves to one
//     experiment whose JSON's SHA-256 digest is its content key, so two
//     identical sweeps arriving together share one engine execution;
//   - an LRU result cache over completed grids, so repeated requests
//     for the same design points are served from memory;
//   - per-job timeouts and cancellation propagated through SweepCtx,
//     and graceful shutdown that drains admitted jobs;
//   - NDJSON progress streaming backed by the engine's Progress hook,
//     and /healthz + /metrics wired to the internal/obs registry.
//
// Simulation results are deterministic, which is what makes coalescing
// and caching sound: any two requests with equal content keys would
// compute identical grids, so sharing one execution is observationally
// equivalent to running both.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/obs"
	"sccsim/internal/trace"
)

// Options configures a Server. The zero value serves with two workers,
// a queue of eight, a 32-entry result cache and a 15-minute job cap.
type Options struct {
	// Workers is the number of jobs executed concurrently (<= 0: 2).
	// Each sweep job itself fans out over the engine's worker pool, so
	// total CPU use is roughly Workers * Parallelism.
	Workers int
	// QueueDepth is the maximum number of admitted jobs waiting for a
	// worker before the server sheds load with 429 (<= 0: 8).
	QueueDepth int
	// CacheEntries bounds the LRU cache of completed results (<= 0: 32).
	CacheEntries int
	// JobTimeout caps any single job's execution; requests may ask for
	// less but never more (<= 0: 15 minutes).
	JobTimeout time.Duration
	// RetryAfter is the backpressure hint returned with 429 responses
	// (<= 0: 1s).
	RetryAfter time.Duration
	// Parallelism is the engine worker-pool size per sweep
	// (0: GOMAXPROCS). Results are identical for every value, which is
	// why it is excluded from the coalescing key.
	Parallelism int
	// TraceCacheDir roots the persistent on-disk trace cache shared by
	// all jobs ("": none).
	TraceCacheDir string
	// Metrics receives the server's HTTP and job metrics plus the
	// engine and simulator counters of every job (nil: the server
	// creates its own registry; /metrics serves it either way).
	Metrics *obs.Registry
	// Logger receives the server's structured request and job log lines,
	// every one stamped with the request ID (nil: no logging — the
	// handlers pay one branch per site).
	Logger *slog.Logger
	// ManifestDir, when set, makes every sweep and search job that
	// creates new work write its versioned run manifest to
	// <ManifestDir>/<job-id>.json,
	// stamped with the request ID that created the job ("": no
	// manifests). The directory is created on server construction.
	ManifestDir string
	// DebugRequests bounds the GET /debug/requests ring buffer of recent
	// requests (<= 0: 64).
	DebugRequests int
	// Cluster configures coordinator mode: the worker registry's
	// heartbeat TTL and the retry knobs of sharded sweeps. The zero
	// value is a standalone node.
	Cluster ClusterOptions
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 8
}

func (o Options) cacheEntries() int {
	if o.CacheEntries > 0 {
		return o.CacheEntries
	}
	return 32
}

func (o Options) jobTimeout() time.Duration {
	if o.JobTimeout > 0 {
		return o.JobTimeout
	}
	return 15 * time.Minute
}

func (o Options) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return time.Second
}

// Server is the HTTP simulation service. Create with New, mount as an
// http.Handler, and stop with Shutdown. All exported methods are safe
// for concurrent use.
type Server struct {
	opts    Options
	reg     *obs.Registry
	logger  *slog.Logger
	reqs    *obs.RequestLog
	mux     http.Handler
	baseCtx context.Context
	cancel  context.CancelFunc
	start   time.Time

	sem chan struct{} // worker slots

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job // by id, all states
	inflight map[string]*job // content key -> queued/running job
	queued   int             // admitted jobs not yet holding a worker slot
	cache    *resultCache
	doneIDs  []string // finished job ids, oldest first, for pruning
	seq      uint64

	// Worker registry (cluster mode): registrations double as
	// heartbeats and expire after the cluster TTL. Guarded by its own
	// mutex — registration traffic must never contend with admission.
	workersMu sync.Mutex
	workers   map[string]*workerNode

	// traceStore is the node's disk trace cache, shared by every job
	// (nil without TraceCacheDir).
	traceStore *trace.DiskCache

	wg sync.WaitGroup // one per admitted job

	// runJob executes one admitted job under its context, storing the
	// result or error on the job. Tests substitute it to simulate slow
	// or failing work; the default is (*Server).execute.
	runJob func(ctx context.Context, j *job) error
}

// New builds a Server ready to mount.
func New(opts Options) *Server {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.ManifestDir != "" {
		// Fail early and visibly: an unusable manifest directory would
		// otherwise fail every sweep job at execution time.
		if err := os.MkdirAll(opts.ManifestDir, 0o755); err != nil {
			panic("serve: manifest dir: " + err.Error())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		reg:      reg,
		logger:   opts.Logger,
		reqs:     obs.NewRequestLog(opts.DebugRequests),
		baseCtx:  ctx,
		cancel:   cancel,
		start:    time.Now(),
		sem:      make(chan struct{}, opts.workers()),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newResultCache(opts.cacheEntries()),
	}
	s.runJob = s.execute
	if opts.TraceCacheDir != "" {
		// An unusable directory degrades to no cache (the library
		// regenerates traces) rather than failing construction.
		dc, err := trace.NewDiskCache(opts.TraceCacheDir)
		if err != nil && s.logger != nil {
			s.logger.Warn("trace cache unavailable", "err", err.Error())
		}
		s.traceStore = dc
	}
	s.mux = s.buildMux()
	return s
}

// ServeHTTP dispatches to the service's routes (see Routes).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the registry behind /metrics — the server's HTTP and
// job counters plus the engine and simulator metrics of every job.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// admitResult says how a submission resolved.
type admitResult struct {
	j *job
	// source is "miss" (a new job was created), "coalesced" (attached
	// to an identical in-flight job) or "hit" (served from the result
	// cache).
	source string
}

// httpError is an admission failure with its HTTP mapping.
type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

// admit runs the service's admission control for one decoded request:
// result-cache lookup, in-flight coalescing, queue-depth backpressure,
// then job creation. newJob builds the job only when admission decides
// to run one.
func (s *Server) admit(key string, newJob func(id string) *job) (admitResult, *httpError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return admitResult{}, &httpError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if j := s.cache.get(key); j != nil {
		s.reg.Counter("serve.cache_hits").Inc()
		return admitResult{j: j, source: "hit"}, nil
	}
	if j := s.inflight[key]; j != nil {
		j.set(func(o *outcome) { o.coalesced++ })
		s.reg.Counter("serve.coalesced").Inc()
		return admitResult{j: j, source: "coalesced"}, nil
	}
	s.reg.Counter("serve.cache_misses").Inc()
	if s.queued >= s.opts.queueDepth() {
		s.reg.Counter("serve.queue_full").Inc()
		return admitResult{}, &httpError{
			code: http.StatusTooManyRequests, msg: "job queue is full",
			retryAfter: s.opts.retryAfter(),
		}
	}
	s.seq++
	id := fmt.Sprintf("j%d-%.8s", s.seq, key)
	j := newJob(id)
	s.jobs[id] = j
	s.inflight[key] = j
	s.queued++
	s.reg.Gauge("serve.jobs_queued").Set(int64(s.queued))
	s.reg.Gauge("serve.inflight_groups").Set(int64(len(s.inflight)))
	s.wg.Add(1)
	go s.run(j)
	return admitResult{j: j, source: "miss"}, nil
}

// run carries one admitted job through its lifecycle: wait for a worker
// slot, execute under the job's deadline, finalize. It is the only
// goroutine that mutates the job's terminal state.
func (s *Server) run(j *job) {
	defer s.wg.Done()
	qs := j.trace.StartSpan("queue_wait")
	select {
	case s.sem <- struct{}{}:
	case <-s.baseCtx.Done():
		// Server force-stopped before the job got a worker.
		qs.End()
		s.dequeue()
		s.finish(j, s.baseCtx.Err())
		return
	}
	qs.End()
	defer func() { <-s.sem }()
	s.dequeue()
	j.set(func(o *outcome) { o.state = jobRunning })
	s.reg.Gauge("serve.jobs_running").Add(1)
	defer s.reg.Gauge("serve.jobs_running").Add(-1)

	timeout := s.opts.jobTimeout()
	if j.timeout > 0 && j.timeout < timeout {
		timeout = j.timeout
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	s.jobLog(j, slog.LevelInfo, "job start")
	start := time.Now()
	sp := j.trace.StartSpan("simulate")
	err := s.runJob(ctx, j)
	sp.End()
	s.reg.Histogram("serve.job_ms", obs.LatencyBucketsMS).
		Observe(uint64(time.Since(start).Milliseconds()))
	if err != nil {
		s.jobLog(j, slog.LevelWarn, "job failed",
			"err", err.Error(), "dur_ms", time.Since(start).Milliseconds())
	} else {
		s.jobLog(j, slog.LevelInfo, "job done",
			"dur_ms", time.Since(start).Milliseconds())
	}
	s.finish(j, err)
}

// dequeue moves a job out of the queued count once it stops waiting.
func (s *Server) dequeue() {
	s.mu.Lock()
	s.queued--
	s.reg.Gauge("serve.jobs_queued").Set(int64(s.queued))
	s.mu.Unlock()
}

// finish publishes a job's terminal state: detach it from the
// coalescing map, cache successful results, prune old finished jobs,
// then wake every waiter. The terminal state is made visible before
// the job enters the result cache, so a cache hit never observes a
// running job, and the done channel closes last.
func (s *Server) finish(j *job, err error) {
	j.terminate(err)
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.reg.Gauge("serve.inflight_groups").Set(int64(len(s.inflight)))
	if err == nil {
		if evicted := s.cache.put(j.key, j); evicted != nil && evicted != j {
			// Drop evicted results from the id index too, so the jobs
			// map cannot grow without bound under distinct requests.
			delete(s.jobs, evicted.id)
		}
	}
	s.doneIDs = append(s.doneIDs, j.id)
	// Keep a bounded tail of finished jobs findable by id; results
	// pinned by the LRU cache stay until the cache evicts them.
	for len(s.doneIDs) > 4*s.opts.cacheEntries() {
		old := s.doneIDs[0]
		s.doneIDs = s.doneIDs[1:]
		if oj := s.jobs[old]; oj != nil && s.cache.get(oj.key) != oj {
			delete(s.jobs, old)
		}
	}
	// Twin lookup for the live cross-validation gauges: if the other
	// backend's grid for the same experiment is already cached, compare
	// them once this lock is released.
	var twin *job
	if err == nil && j.twinKey != "" {
		twin = s.cache.get(j.twinKey)
	}
	s.mu.Unlock()
	if err != nil {
		s.reg.Counter("serve.jobs_failed").Inc()
	} else {
		s.reg.Counter("serve.jobs_done").Inc()
	}
	if twin != nil {
		s.publishCrossval(j, twin)
	}
	close(j.done)
}

// execute is the production job runner: it bridges the job's
// experiment to the sccsim facade, fanning engine progress out to the
// job's subscribers and capturing the sweep report for the response.
func (s *Server) execute(ctx context.Context, j *job) error {
	opts := j.exp.opts(j.parallelism)
	opts = append(opts, sccsim.WithMetrics(s.reg))
	if j.requestID != "" {
		opts = append(opts, sccsim.WithRequestID(j.requestID))
	}
	if s.logger != nil {
		opts = append(opts, sccsim.WithLogger(s.logger.With("job", j.id)))
	}
	if s.traceStore != nil {
		opts = append(opts, sccsim.WithTraceStore(s.traceStore))
	}
	if s.opts.ManifestDir != "" && j.exp.Kind != jobPoint {
		f, err := os.Create(filepath.Join(s.opts.ManifestDir, j.id+".json"))
		if err != nil {
			return err
		}
		defer f.Close()
		opts = append(opts, sccsim.WithManifest(f))
	}
	switch j.exp.Kind {
	case jobSweep:
		opts = append(opts,
			sccsim.WithProgress(j.broadcast),
			sccsim.WithSweepReport(func(r sccsim.SweepReport) {
				j.set(func(o *outcome) { o.report = &r })
			}),
		)
		if rem := s.clusterRemote(j.exp, j.requestID); rem != nil {
			// Healthy workers registered: shard the sweep across them,
			// with local simulation as the per-point fallback.
			opts = append(opts, sccsim.WithCluster(rem))
		}
		g, err := sccsim.SweepCtx(ctx, j.exp.Workload, opts...)
		if err != nil {
			return err
		}
		j.set(func(o *outcome) { o.grid = g })
	case jobPoint:
		pt, err := sccsim.Do(ctx, j.exp.Workload, opts...)
		if err != nil {
			return err
		}
		j.set(func(o *outcome) { o.point = pt })
	case jobSearch:
		res, err := sccsim.SearchCtx(ctx, j.exp.Workload, *j.exp.Search, opts...)
		if err != nil {
			return err
		}
		j.set(func(o *outcome) { o.search = res })
	}
	return nil
}

// Shutdown gracefully stops the server: new submissions are refused
// with 503 and /healthz reports draining, while every already-admitted
// job — queued or running — is drained to completion. If ctx expires
// first, the remaining jobs are cancelled through their contexts and
// Shutdown returns ctx.Err after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}
