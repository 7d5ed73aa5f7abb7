// Tests of the cluster client: the body it posts is the worker's own
// PointRequest and resolves to the coordinator's experiment, failed
// workers are retried elsewhere and cooled down, and terminal failures
// are bounded errors that hand the point back to the local fallback.

package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"sccsim"
)

// fillData sets every data field of the struct v points at to a
// distinct non-zero value, starting after *n. Pointers, interfaces and
// funcs are observers (tracers, metrics, checkers), not data, and stay
// unset: they never cross the wire.
func fillData(t *testing.T, v reflect.Value, n *int) {
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Func:
			continue
		case reflect.Int, reflect.Int64:
			*n++
			f.SetInt(int64(*n))
		case reflect.Uint64:
			*n++
			f.SetUint(uint64(*n))
		case reflect.String:
			*n++
			f.SetString(fmt.Sprintf("v%d", *n))
		default:
			t.Fatalf("%s.%s: no test value for a %s field", v.Type(), v.Type().Field(i).Name, f.Type())
		}
	}
}

// TestHTTPClusterBodyRoundTrip: the body the cluster client posts for a
// remote point decodes strictly on a worker and resolves to the
// experiment the coordinator would run itself. Every data field of the
// point's Scale, simulator Options and Axes is set (found by
// reflection), plus Verify and Backend, so a field the client drops, or
// one a worker cannot decode, fails here.
func TestHTTPClusterBodyRoundTrip(t *testing.T) {
	rp := sccsim.RemotePoint{
		Workload: sccsim.BarnesHut, ProcsPerCluster: 2, SCCBytes: 32 * 1024,
		Verify: true, Backend: string(sccsim.BackendExact),
	}
	n := 0
	fillData(t, reflect.ValueOf(&rp.Scale), &n)
	fillData(t, reflect.ValueOf(&rp.Sim), &n)
	fillData(t, reflect.ValueOf(&rp.Axes), &n)

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

	pt, err := newHTTPCluster([]string{worker.URL}, ClusterOptions{}, "").RunPoint(context.Background(), rp)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Config.ProcsPerCluster != 2 || pt.Result == nil {
		t.Fatalf("remote point = %+v", pt)
	}
	e := <-got
	spec := e.spec(0)
	wantSim := rp.Sim
	wantSim.Tracer, wantSim.Metrics, wantSim.Verify = nil, nil, nil
	switch {
	case e.Kind != jobPoint || e.Workload != rp.Workload:
		t.Errorf("worker runs a %s of %s", e.Kind, e.Workload)
	case spec.ProcsPerCluster != rp.ProcsPerCluster || spec.SCCBytes != rp.SCCBytes:
		t.Errorf("worker runs point %dP/%dB, want %dP/%dB", spec.ProcsPerCluster, spec.SCCBytes, rp.ProcsPerCluster, rp.SCCBytes)
	case *spec.Scale != rp.Scale:
		t.Errorf("worker scale %+v, want %+v", *spec.Scale, rp.Scale)
	case spec.Sim == nil || *spec.Sim != wantSim:
		t.Errorf("worker simulator options %+v, want %+v", spec.Sim, wantSim)
	case spec.Verify != rp.Verify || spec.Backend != rp.Backend:
		t.Errorf("worker verify %t backend %q, want %t %q", spec.Verify, spec.Backend, rp.Verify, rp.Backend)
	case spec.Axes == nil || *spec.Axes != rp.Axes:
		t.Errorf("worker axes %+v, want %+v", spec.Axes, rp.Axes)
	}
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

	c := newHTTPCluster([]string{dead.URL, live.URL}, ClusterOptions{Retries: 3, BackoffMS: 1}, reqID)
	rp := sccsim.RemotePoint{
		Workload: sccsim.Multiprog, ProcsPerCluster: 1, SCCBytes: 64 * 1024,
		Scale: tinyScale(41),
	}
	if _, err := c.RunPoint(context.Background(), rp); err != nil {
		t.Fatal(err)
	}
	if liveHits.Load() == 0 {
		t.Fatal("live worker never reached")
	}
	// The dead worker is cooling down: the next point goes straight to
	// the live one.
	before := deadHits.Load()
	if _, err := c.RunPoint(context.Background(), rp); err != nil {
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
	c := newHTTPCluster(nil, ClusterOptions{}, "")
	rp := sccsim.RemotePoint{Workload: sccsim.BarnesHut, ProcsPerCluster: 1,
		SCCBytes: 64 * 1024, Scale: sccsim.QuickScale()}
	if _, err := c.RunPoint(context.Background(), rp); err == nil {
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
	c = newHTTPCluster([]string{down.URL}, ClusterOptions{Retries: 2, BackoffMS: 1}, "")
	if _, err := c.RunPoint(context.Background(), rp); err == nil {
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
	c = newHTTPCluster([]string{garbage.URL}, ClusterOptions{BackoffMS: 1}, "")
	if _, err := c.RunPoint(context.Background(), rp); err == nil {
		t.Fatal("resultless envelope accepted")
	}

	// Cancellation aborts immediately with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c = newHTTPCluster([]string{down.URL}, ClusterOptions{Retries: 5, BackoffMS: 1}, "")
	if _, err := c.RunPoint(ctx, rp); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
