// Tests of the cluster client: the body it posts is the worker's own
// PointRequest and resolves to the sweep's experiment at the point, failed
// workers are retried elsewhere and cooled down, and terminal failures
// are bounded errors that hand the point back to the local fallback.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sccsim"
)

// TestHTTPClusterBodyRoundTrip: the body the cluster client posts for
// a design point decodes strictly on a worker and resolves to the
// sweep's own experiment made a point job at that point. Every leaf a
// sweep carries — workload, backend, and each field of its scale, sim
// and axes, enumerated as TestExperimentKey does — is set in turn, so a
// leaf the client drops, or one a worker cannot decode, fails here.
func TestHTTPClusterBodyRoundTrip(t *testing.T) {
	got := make(chan experiment, 1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/point" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var req PointRequest
		if err := decodeStrict(r.Body, &req); err != nil {
			t.Errorf("worker cannot decode the client's body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e, err := req.resolve()
		if err != nil {
			t.Errorf("worker cannot resolve the client's body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		got <- e
		io.WriteString(w, `{"status":"done","point":{"Config":{"ProcsPerCluster":2,"SCCBytes":32768},"Result":{"Cycles":1}}}`)
	}))
	defer worker.Close()

	ctx := context.Background()
	for _, path := range leafPaths(reflect.TypeOf(experiment{}), nil) {
		sweep := experiment{Kind: jobSweep, Workload: sccsim.BarnesHut, Backend: sccsim.BackendExact}
		name := setLeaf(t, reflect.ValueOf(&sweep).Elem(), path)
		switch {
		case name == "Kind" || name == "PPC" || name == "SCCBytes" || strings.HasPrefix(name, "Search."):
			continue // the point sets these; a sweep carries no search
		case name == "Workload":
			sweep.Workload = sccsim.MP3D
		case name == "Backend":
			sweep.Backend = sccsim.BackendAnalytic
		}
		pt, err := newHTTPCluster([]string{worker.URL}, ClusterOptions{}, sweep, "").RunPoint(ctx, sweep.Workload, 2, 32*1024)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pt.Config.ProcsPerCluster != 2 || pt.Result == nil {
			t.Fatalf("%s: remote point = %+v", name, pt)
		}
		want := sweep
		want.Kind, want.PPC, want.SCCBytes = jobPoint, 2, 32*1024
		if e := <-got; !reflect.DeepEqual(e, want) {
			t.Errorf("%s: the worker resolves the posted body to\n%s, want\n%s", name, mustJSON(t, e), mustJSON(t, want))
		}
	}
}

// mustJSON renders v for a failure message.
func mustJSON(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHTTPClusterRetriesAcrossWorkers: a failing worker's point is
// retried on the next one, and the failed worker sits out its cooldown.
// Every attempt carries the sweep's request ID.
func TestHTTPClusterRetriesAcrossWorkers(t *testing.T) {
	const reqID = "retry-1"
	checkID := func(r *http.Request) {
		if got := r.Header.Get("X-Request-ID"); got != reqID {
			t.Errorf("attempt X-Request-ID = %q, want %q", got, reqID)
		}
	}
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		checkID(r)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	var liveHits atomic.Int64
	srv := New(Options{})
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		liveHits.Add(1)
		checkID(r)
		srv.ServeHTTP(w, r)
	}))
	defer live.Close()

	sweep := experiment{Kind: jobSweep, Workload: sccsim.Multiprog,
		Backend: sccsim.BackendExact, Scale: ScaleSpec(tinyScale(41))}
	c := newHTTPCluster([]string{dead.URL, live.URL}, ClusterOptions{Retries: 3, BackoffMS: 1}, sweep, reqID)
	if _, err := c.RunPoint(context.Background(), sccsim.Multiprog, 1, 64*1024); err != nil {
		t.Fatal(err)
	}
	if liveHits.Load() == 0 {
		t.Fatal("live worker never reached")
	}
	// The dead worker is cooling down: the next point goes straight to
	// the live one.
	before := deadHits.Load()
	if _, err := c.RunPoint(context.Background(), sccsim.Multiprog, 1, 64*1024); err != nil {
		t.Fatal(err)
	}
	if deadHits.Load() != before {
		t.Fatal("cooling-down worker was offered another job")
	}
}

// TestHTTPClusterTerminalFailures: no workers, workers that all fail,
// and a worker serving garbage each end in an error after a bounded
// number of attempts; cancellation ends in the context's error.
func TestHTTPClusterTerminalFailures(t *testing.T) {
	// No workers at all.
	sweep := experiment{Kind: jobSweep, Workload: sccsim.BarnesHut,
		Backend: sccsim.BackendExact, Scale: ScaleSpec(sccsim.QuickScale())}
	runPoint := func(ctx context.Context, c *httpCluster) error {
		_, err := c.RunPoint(ctx, sccsim.BarnesHut, 1, 64*1024)
		return err
	}
	c := newHTTPCluster(nil, ClusterOptions{}, sweep, "")
	if err := runPoint(context.Background(), c); err == nil {
		t.Fatal("empty cluster succeeded")
	}

	// Every worker failing: bounded attempts, then an error (the sweep
	// engine's local fallback takes over from there).
	var hits atomic.Int64
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	c = newHTTPCluster([]string{down.URL}, ClusterOptions{Retries: 2, BackoffMS: 1}, sweep, "")
	if err := runPoint(context.Background(), c); err == nil {
		t.Fatal("all-down cluster succeeded")
	}
	if hits.Load() != 3 {
		t.Fatalf("%d attempts, want retries+1 = 3", hits.Load())
	}

	// A worker serving garbage is a failure, not a bad point.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"done"}`)
	}))
	defer garbage.Close()
	c = newHTTPCluster([]string{garbage.URL}, ClusterOptions{BackoffMS: 1}, sweep, "")
	if err := runPoint(context.Background(), c); err == nil {
		t.Fatal("resultless envelope accepted")
	}

	// Cancellation aborts immediately with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c = newHTTPCluster([]string{down.URL}, ClusterOptions{Retries: 5, BackoffMS: 1}, sweep, "")
	if err := runPoint(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
