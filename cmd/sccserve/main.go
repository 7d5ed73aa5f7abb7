// Command sccserve runs the simulation service: the sccsim design-space
// API behind HTTP/JSON, with job deduplication, backpressure and result
// caching (see internal/serve and docs/API.md).
//
// Usage:
//
//	sccserve -addr :8347
//	sccserve -addr :8347 -workers 4 -queue 16 -trace-cache /var/cache/scc
//
// Cluster mode (see docs/API.md §Cluster): any node accepts worker
// registrations and shards its sweeps across them; a node becomes a
// worker of another with -join/-advertise:
//
//	sccserve -addr :8347 -trace-cache /var/cache/scc                # coordinator
//	sccserve -addr :8348 -join http://coord:8347 \
//	         -advertise http://worker-a:8348                        # worker
//
// Routes:
//
//	POST /v1/sweep             full design-space sweep (sync, async or NDJSON stream)
//	GET  /v1/sweep/{id}        async job status and result
//	POST /v1/point             one design point
//	POST /v1/search            adaptive design-space search
//	POST /v1/cluster/register  worker registration and heartbeat
//	GET  /v1/cluster           registered workers
//	GET  /healthz              liveness and queue state
//	GET  /metrics              metrics registry (JSON, or Prometheus text via Accept)
//	GET  /debug/requests       ring buffer of recent requests with span timings
//
// Observability: every request carries an X-Request-ID (generated when
// the caller sends none) that appears in the response header, the
// structured JSON logs on stderr (-log-level debug|info|warn|error),
// the job record, and — with -manifest-dir — the run manifest written
// for each sweep job. -debug-addr serves net/http/pprof and expvar on a
// side listener, mirroring sccexplore.
//
// The process exits cleanly on SIGINT/SIGTERM: new submissions are
// refused while admitted jobs drain, bounded by -drain-timeout.
// Diagnostics go to stderr; stdout is never written, so the process
// composes with service managers that capture streams separately.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sccsim/internal/obs"
	"sccsim/internal/serve"
)

// stdout is reserved for data (sccserve emits none); stderr receives
// every diagnostic. Tests swap them to assert the separation.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// testHookReady is called with the bound address once the server is
// accepting connections, and testHookShutdown lets tests request the
// same drain path a signal would. Both are no-ops in production.
var (
	testHookReady    = func(addr net.Addr) {}
	testHookShutdown = make(chan struct{})
)

func main() {
	os.Exit(cli(os.Args[1:]))
}

// cli is the whole command behind main, parameterized for tests: it
// parses args, serves until interrupted, drains, and returns the
// process exit code.
func cli(args []string) int {
	fs := flag.NewFlagSet("sccserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8347", "listen address")
	workers := fs.Int("workers", 0, "jobs executed concurrently (0 = service default of 2)")
	queue := fs.Int("queue", 0, "admitted jobs waiting for a worker before 429 (0 = default of 8)")
	cacheEntries := fs.Int("cache-entries", 0, "completed results kept in the LRU cache (0 = default of 32)")
	jobTimeout := fs.Duration("job-timeout", 0, "hard cap on any single job (0 = default of 15m)")
	parallel := fs.Int("parallel", 0, "engine worker-pool size per sweep (0 = GOMAXPROCS); results are identical for any value")
	traceCacheDir := fs.String("trace-cache", "", "persist generated workload traces in this directory, shared by all jobs")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for running jobs before cancelling them")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	manifestDir := fs.String("manifest-dir", "", "write each sweep job's run manifest to <dir>/<job-id>.json, stamped with its request ID")
	logLevel := fs.String("log-level", "info", "structured log level on stderr: debug, info, warn or error")
	join := fs.String("join", "", "run as a worker of the coordinator at this base URL: register and keep heartbeating")
	advertise := fs.String("advertise", "", "base URL the coordinator should reach this node at (required with -join)")
	heartbeatTTL := fs.Duration("heartbeat-ttl", 0, "drop workers not heard from for this long (0 = default of 15s)")
	pointTimeout := fs.Duration("point-timeout", 0, "cap on each remote point attempt when sharding sweeps (0 = default of 2m)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *join != "" && *advertise == "" {
		fmt.Fprintln(stderr, "sccserve: -join requires -advertise (the URL the coordinator reaches this node at)")
		return 2
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "sccserve: %v\n", err)
		return 2
	}
	if *manifestDir != "" {
		if err := os.MkdirAll(*manifestDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "sccserve: manifest dir: %v\n", err)
			return 1
		}
	}

	svc := serve.New(serve.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cacheEntries,
		JobTimeout:    *jobTimeout,
		Parallelism:   *parallel,
		TraceCacheDir: *traceCacheDir,
		Logger:        obs.NewJSONLogger(stderr, level),
		ManifestDir:   *manifestDir,
		Cluster: serve.ClusterOptions{
			HeartbeatTTL:   *heartbeatTTL,
			PointTimeoutMS: pointTimeout.Milliseconds(),
		},
	})
	if *debugAddr != "" {
		// Guard against re-registration when tests run cli repeatedly —
		// expvar.Publish panics on duplicate names.
		if expvar.Get("sccsim") == nil {
			expvar.Publish("sccsim", expvar.Func(func() any { return svc.Metrics().Snapshot() }))
		}
		go func() {
			// DefaultServeMux carries both the pprof handlers (via the
			// package import) and expvar's /debug/vars.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(stderr, "sccserve: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "sccserve: pprof and expvar on http://%s/debug/\n", *debugAddr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "sccserve: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "sccserve: listening on http://%s\n", ln.Addr())
	if *join != "" {
		ttl, err := serve.RegisterWorker(ctx, *join, *advertise)
		if err != nil {
			fmt.Fprintf(stderr, "sccserve: joining %s: %v\n", *join, err)
			return 1
		}
		fmt.Fprintf(stderr, "sccserve: joined %s as %s (heartbeat TTL %v)\n", *join, *advertise, ttl)
		go serve.HeartbeatLoop(ctx, *join, *advertise)
	}
	testHookReady(ln.Addr())

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "sccserve: %v\n", err)
		return 1
	case <-ctx.Done():
	case <-testHookShutdown:
	}
	stop()

	fmt.Fprintf(stderr, "sccserve: shutting down, draining jobs (up to %v)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting and finish in-flight HTTP exchanges, then drain the
	// job queue itself.
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "sccserve: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "sccserve: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "sccserve: drained cleanly")
	return 0
}
