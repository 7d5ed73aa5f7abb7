package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func TestInstrumentHandlerCounts(t *testing.T) {
	reg := NewRegistry()
	h := InstrumentHandler(reg, "POST /v1/sweep", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, "boom", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "?fail=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := reg.Counter("http.requests").Value(); got != 4 {
		t.Errorf("http.requests = %d, want 4", got)
	}
	if got := reg.Counter("http.v1_sweep.requests").Value(); got != 4 {
		t.Errorf("route requests = %d, want 4", got)
	}
	if got := reg.Counter("http.v1_sweep.status_2xx").Value(); got != 3 {
		t.Errorf("status_2xx = %d, want 3", got)
	}
	if got := reg.Counter("http.v1_sweep.status_4xx").Value(); got != 1 {
		t.Errorf("status_4xx = %d, want 1", got)
	}
	if got := reg.Gauge("http.v1_sweep.inflight").Value(); got != 0 {
		t.Errorf("inflight = %d, want 0 after requests return", got)
	}
	if got := reg.Histogram("http.v1_sweep.ms", LatencyBucketsMS).Snapshot().Count; got != 4 {
		t.Errorf("latency samples = %d, want 4", got)
	}
}

// TestInstrumentHandlerNilRegistry: the nil-disabled contract extends to
// the middleware — a nil registry returns the handler unchanged.
func TestInstrumentHandlerNilRegistry(t *testing.T) {
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := InstrumentHandler(nil, "GET /x", base); got == nil {
		t.Fatal("nil registry must still return a handler")
	}
	rec := httptest.NewRecorder()
	InstrumentHandler(nil, "GET /x", base).ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != 200 {
		t.Errorf("code = %d", rec.Code)
	}
}

// TestStatusWriterFlush: the middleware must not hide http.Flusher from
// streaming handlers.
func TestStatusWriterFlush(t *testing.T) {
	reg := NewRegistry()
	// The client reads the flag once the flushed headers arrive, while
	// the handler may still run: it is set before Flush, atomically.
	var flushed atomic.Bool
	h := InstrumentHandler(reg, "POST /v1/sweep", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("instrumented writer does not expose Flush")
			return
		}
		flushed.Store(true)
		w.(http.Flusher).Flush()
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !flushed.Load() {
		t.Error("handler never flushed")
	}
}

// TestInstrumentHandlerStreamedStatus: a streaming handler (the NDJSON
// path) never calls WriteHeader explicitly — it writes, flushes, writes
// more. The implicit 200 from the first Write must land in status_2xx,
// and an explicit pre-stream status must win over later writes.
func TestInstrumentHandlerStreamedStatus(t *testing.T) {
	reg := NewRegistry()
	h := InstrumentHandler(reg, "POST /v1/sweep", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("explicit") != "" {
			w.WriteHeader(http.StatusAccepted)
		}
		f := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			w.Write([]byte(`{"event":"progress"}` + "\n"))
			f.Flush()
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, q := range []string{"", "?explicit=1"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		// The middleware counts the status after the handler returns,
		// and the server ends the chunked body only after that: reading
		// to EOF orders the count before the checks below.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := reg.Counter("http.v1_sweep.status_2xx").Value(); got != 2 {
		t.Errorf("status_2xx = %d, want 2 (implicit and explicit streamed statuses)", got)
	}
	if got := reg.Counter("http.v1_sweep.status_5xx").Value(); got != 0 {
		t.Errorf("status_5xx = %d, want 0", got)
	}
}

// TestInstrumentHandlerReusesRecorder: when the writer is already a
// *StatusRecorder (the serve request shell shares one), the middleware
// must not re-wrap it — both layers have to agree on the status, even
// one set by an inner recovery path after the handler returns.
func TestInstrumentHandlerReusesRecorder(t *testing.T) {
	reg := NewRegistry()
	var inner http.ResponseWriter
	h := InstrumentHandler(reg, "GET /x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner = w
		w.WriteHeader(http.StatusInternalServerError)
	}))
	rec := httptest.NewRecorder()
	outer := NewStatusRecorder(rec)
	h.ServeHTTP(outer, httptest.NewRequest("GET", "/x", nil))
	if inner != outer {
		t.Error("middleware re-wrapped an existing StatusRecorder")
	}
	if got := reg.Counter("http.x.status_5xx").Value(); got != 1 {
		t.Errorf("status_5xx = %d, want 1", got)
	}
	if outer.Status() != http.StatusInternalServerError || !outer.Wrote() {
		t.Errorf("recorder status = %d wrote = %v", outer.Status(), outer.Wrote())
	}
}

// TestStatusRecorderDefaults: an untouched recorder reports the
// implicit 200 but knows nothing was written.
func TestStatusRecorderDefaults(t *testing.T) {
	sr := NewStatusRecorder(httptest.NewRecorder())
	if sr.Status() != 200 {
		t.Errorf("Status = %d, want 200", sr.Status())
	}
	if sr.Wrote() {
		t.Error("Wrote = true before any write")
	}
	sr.Write([]byte("x"))
	if !sr.Wrote() || sr.Status() != 200 {
		t.Errorf("after Write: status = %d wrote = %v", sr.Status(), sr.Wrote())
	}
}

func TestMetricRoute(t *testing.T) {
	cases := map[string]string{
		"POST /v1/sweep":     "v1_sweep",
		"GET /v1/sweep/{id}": "v1_sweep_id",
		"GET /healthz":       "healthz",
		"/metrics":           "metrics",
	}
	for in, want := range cases {
		if got := metricRoute(in); got != want {
			t.Errorf("metricRoute(%q) = %q, want %q", in, got, want)
		}
	}
}
