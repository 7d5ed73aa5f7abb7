// Package clustertest is an in-process multi-node cluster fixture: one
// coordinator and N workers, each a real serve.Server behind a real
// HTTP listener (httptest), with per-node trace cache directories and
// the workers registered in the coordinator's registry. Tests use it to
// pin the distributed sweep's correctness properties — byte-identical
// grids, worker-failure recovery, graceful drain — against the actual
// wire protocol rather than mocks. Workers can be "killed" (connections
// abort as if the process died) and restarted, which is what the chaos
// and recovery tests drive.
package clustertest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"sccsim/internal/serve"
)

// Worker is one worker node: a serve.Server on a live listener.
type Worker struct {
	// Server is the node's service (useful for its metrics registry).
	Server *serve.Server
	// URL is the node's base URL as registered with the coordinator.
	URL string

	srv   *httptest.Server
	dead  atomic.Bool
	delay atomic.Int64 // artificial per-request latency, ms
}

// Kill simulates the worker process dying: in-flight connections are
// severed and every subsequent request aborts without a response. The
// coordinator sees connection errors, exactly as with a crashed node.
func (w *Worker) Kill() {
	w.dead.Store(true)
	w.srv.CloseClientConnections()
}

// Restart brings a killed worker back (same URL, same registration).
func (w *Worker) Restart() { w.dead.Store(false) }

// SetDelay injects d of extra latency before every request the worker
// serves — a degraded network, not a dead node. Zero removes it.
func (w *Worker) SetDelay(d time.Duration) { w.delay.Store(int64(d)) }

// Cluster is the fixture: a coordinator with registered workers.
type Cluster struct {
	// Coordinator is the node requests go to.
	Coordinator *serve.Server
	// URL is the coordinator's base URL.
	URL string
	// Workers are the registered worker nodes.
	Workers []*Worker

	srv *httptest.Server
}

// Options tunes the fixture.
type Options struct {
	// Workers is the number of worker nodes (<= 0: 2).
	Workers int
	// Coordinator overrides the coordinator's serve.Options; the
	// fixture fills in the cluster TTL and a trace cache dir when
	// unset.
	Coordinator serve.Options
	// PointTimeoutMS caps each remote point attempt (<= 0: 30s) — keep
	// it small in chaos tests so killed-worker retries are fast.
	PointTimeoutMS int64
	// Dir is where the per-node trace cache directories are created
	// (empty: the system temp dir). New removes them on stop; Start
	// uses t.TempDir and ignores this field.
	Dir string
}

// Start builds and starts a cluster, registered and ready. Nodes are
// shut down via t.Cleanup (coordinator last).
func Start(t testing.TB, o Options) *Cluster {
	t.Helper()
	o.Dir = t.TempDir()
	c, stop, err := New(o)
	if err != nil {
		t.Fatalf("clustertest: %v", err)
	}
	t.Cleanup(stop)
	return c
}

// New builds and starts a cluster outside a testing context — the load
// driver (cmd/sccload) uses it. The stop function drains and shuts down
// every node, coordinator last, and removes the trace directories.
func New(o Options) (*Cluster, func(), error) {
	n := o.Workers
	if n <= 0 {
		n = 2
	}
	root, err := os.MkdirTemp(o.Dir, "clustertest-")
	if err != nil {
		return nil, nil, err
	}
	var stops []func() // run in reverse
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		os.RemoveAll(root)
	}
	tempDir := func() string {
		d, err := os.MkdirTemp(root, "node-")
		if err != nil {
			d = root
		}
		return d
	}

	copts := o.Coordinator
	if copts.Cluster.HeartbeatTTL == 0 {
		// Registrations must not expire under a test scheduler pause.
		copts.Cluster.HeartbeatTTL = time.Hour
	}
	if copts.Cluster.PointTimeoutMS == 0 {
		copts.Cluster.PointTimeoutMS = o.PointTimeoutMS
		if copts.Cluster.PointTimeoutMS == 0 {
			copts.Cluster.PointTimeoutMS = 30_000
		}
	}
	if copts.TraceCacheDir == "" {
		copts.TraceCacheDir = tempDir()
	}
	coord := serve.New(copts)
	csrv := httptest.NewServer(coord)
	c := &Cluster{Coordinator: coord, URL: csrv.URL, srv: csrv}
	stops = append(stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
		csrv.Close()
	})

	for i := 0; i < n; i++ {
		ws := serve.New(serve.Options{
			Workers:       2,
			QueueDepth:    64,
			TraceCacheDir: tempDir(),
		})
		w := &Worker{Server: ws}
		w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if w.dead.Load() {
				// Abort the connection with no response — a dead
				// process, not a polite 5xx.
				panic(http.ErrAbortHandler)
			}
			if d := w.delay.Load(); d > 0 {
				select {
				case <-time.After(time.Duration(d)):
				case <-r.Context().Done():
				}
			}
			ws.ServeHTTP(rw, r)
		}))
		w.URL = w.srv.URL
		c.Workers = append(c.Workers, w)
		stops = append(stops, func() {
			w.dead.Store(false)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = ws.Shutdown(ctx)
			w.srv.Close()
		})
		if _, err := serve.RegisterWorker(context.Background(), csrv.URL, w.srv.URL); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return c, stop, nil
}
