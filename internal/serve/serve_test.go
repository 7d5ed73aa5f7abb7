// White-box tests of the service machinery: admission control,
// backpressure, draining, and the result LRU. The job runner is stubbed
// so queue states are reached deterministically; the real engine is
// exercised by http_test.go.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// gateRunner replaces Server.runJob with one that blocks until released
// (or the job context ends), so tests can hold jobs "running".
func gateRunner(s *Server) (release func()) {
	gate := make(chan struct{})
	s.runJob = func(ctx context.Context, j *job) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return func() { close(gate) }
}

func postSweep(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const asyncBody = `{"workload":"multiprog","scale":"quick","wait":false}`

// TestQueueFull429: with one worker and a queue depth of one, the third
// distinct job is shed with 429 and a Retry-After hint.
func TestQueueFull429(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	release := gateRunner(s)
	defer release()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Distinct seeds make distinct content keys: no coalescing.
	submit := func(seed int) *http.Response {
		return postSweep(t, ts.URL, fmt.Sprintf(
			`{"workload":"multiprog","scale":"quick","seed":%d,"wait":false}`, seed))
	}
	r1 := submit(1)
	defer r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d, want 202", r1.StatusCode)
	}
	// Wait until job 1 holds the worker slot, so job 2 must queue.
	waitFor(t, func() bool { return s.reg.Gauge("serve.jobs_running").Value() == 1 })
	r2 := submit(2)
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second job: status %d, want 202", r2.StatusCode)
	}
	r3 := submit(3)
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: status %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(r3.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Errorf("429 body missing error envelope: %v %+v", err, eb)
	}
	if got := s.reg.Counter("serve.queue_full").Value(); got != 1 {
		t.Errorf("serve.queue_full = %d, want 1", got)
	}
}

// TestGracefulShutdownDrains: Shutdown refuses new work, reports
// draining on /healthz, and waits for admitted jobs — queued and
// running — to complete.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	release := gateRunner(s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	r1 := postSweep(t, ts.URL, asyncBody)
	defer r1.Body.Close()
	var ack SweepResponse
	if err := json.NewDecoder(r1.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.reg.Gauge("serve.jobs_running").Value() == 1 })

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()

	// Draining is visible on /healthz (503) and new submissions bounce.
	waitFor(t, func() bool {
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer hr.Body.Close()
		return hr.StatusCode == http.StatusServiceUnavailable
	})
	rNew := postSweep(t, ts.URL, `{"workload":"multiprog","seed":9,"wait":false}`)
	defer rNew.Body.Close()
	if rNew.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status %d, want 503", rNew.StatusCode)
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v before the running job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after jobs drained")
	}
	// The drained job's result is still queryable.
	sr, err := http.Get(ts.URL + "/v1/sweep/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" {
		t.Errorf("drained job status = %q, want done", st.Status)
	}
}

// TestShutdownDeadlineCancelsJobs: when the drain deadline passes,
// running jobs are cancelled through their contexts and Shutdown
// reports the deadline error.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	_ = gateRunner(s) // never released: job blocks until its ctx ends
	ts := httptest.NewServer(s)
	defer ts.Close()

	r := postSweep(t, ts.URL, asyncBody)
	defer r.Body.Close()
	var ack SweepResponse
	if err := json.NewDecoder(r.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.reg.Gauge("serve.jobs_running").Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	sr, err := http.Get(ts.URL + "/v1/sweep/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "failed" || st.Error == "" {
		t.Errorf("force-cancelled job = %q (error %q), want failed with an error", st.Status, st.Error)
	}
}

// TestPerJobTimeout: a request's timeout_ms caps its execution and the
// failure is reported synchronously.
func TestPerJobTimeout(t *testing.T) {
	s := New(Options{Workers: 1})
	_ = gateRunner(s) // blocks until ctx ends
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postSweep(t, ts.URL, `{"workload":"multiprog","scale":"quick","timeout_ms":50}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var sw SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	if sw.Status != "failed" || !strings.Contains(sw.Error, "deadline") {
		t.Errorf("response %+v, want failed with a deadline error", sw)
	}
}

// TestResultCacheLRU: the cache holds cap entries, evicts the least
// recently used, and get refreshes recency.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	j := func(key string) *job { return &job{id: "id-" + key, key: key} }
	c.put("a", j("a"))
	c.put("b", j("b"))
	if c.get("a") == nil {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c must evict b.
	if ev := c.put("c", j("c")); ev == nil || ev.key != "b" {
		t.Fatalf("evicted %v, want b", ev)
	}
	if c.get("b") != nil {
		t.Error("b still cached after eviction")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Error("a and c should remain")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestBadRequests: validation failures map to 400 with the error
// envelope; unknown jobs to 404.
func TestBadRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{"workload":"fft"}`, http.StatusBadRequest},
		{`{"workload":"mp3d","scale":"huge"}`, http.StatusBadRequest},
		{`{"workload":"mp3d","unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postSweep(t, ts.URL, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("body %q: missing error envelope", c.body)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/sweep/nosuchjob")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// Wrong method on a valid path.
	gr, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: status %d, want 405", gr.StatusCode)
	}
}

// TestUnroutedRequestsGetErrorEnvelope: an unknown route answers 404
// and a wrong method 405 with its Allow header, both in the JSON error
// envelope like every other non-2xx response.
func TestUnroutedRequestsGetErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, c := range []struct {
		method, path string
		code         int
		allow        string
	}{
		{"GET", "/v1/nope", http.StatusNotFound, ""},
		{"POST", "/v1/sweep/abc/def", http.StatusNotFound, ""},
		{"GET", "/v1/sweep", http.StatusMethodNotAllowed, "POST"},
		{"DELETE", "/v1/sweep/abc", http.StatusMethodNotAllowed, "GET, HEAD"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		what := c.method + " " + c.path
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", what, resp.StatusCode, c.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		}
		if derr != nil || eb.Error == "" {
			t.Errorf("%s: no error envelope (%v)", what, derr)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s: Allow %q, want %q", what, got, c.allow)
		}
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}

// TestRoutesHaveHandlers: buildMux panics on a Routes entry without a
// handler; constructing a server proves the table is closed. This test
// exists so a route added to Routes without a handler fails here, not
// in production.
func TestRoutesHaveHandlers(t *testing.T) {
	_ = New(Options{}) // panics if Routes and buildMux drift
	if len(Routes()) != 9 {
		t.Errorf("Routes() lists %d patterns, want 9", len(Routes()))
	}
	var buf bytes.Buffer
	for _, r := range Routes() {
		fmt.Fprintln(&buf, r)
	}
	if !strings.Contains(buf.String(), "/healthz") || !strings.Contains(buf.String(), "/metrics") {
		t.Errorf("Routes missing health/metrics:\n%s", buf.String())
	}
}
