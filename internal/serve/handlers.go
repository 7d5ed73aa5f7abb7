// HTTP handlers. The three POST routes share one request path (handle):
// decode, resolve, validate, key, admit, wait, encode. A route adds only
// its body type and its render step, plus the sweep's stream and async
// modes. Handlers never touch the engine directly — they only talk to
// the admission control and the job they are handed, so every route
// shares the queue, the coalescing map and the result cache.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"sccsim/internal/obs"
)

// maxBodyBytes bounds request bodies; experiment specs are tiny.
const maxBodyBytes = 1 << 20

// Routes lists every registered route pattern (http.ServeMux syntax).
// docs/API.md must document each one — the docs-check tool enforces it.
func Routes() []string {
	return []string{
		"POST /v1/sweep",
		"GET /v1/sweep/{id}",
		"POST /v1/point",
		"POST /v1/search",
		"POST /v1/cluster/register",
		"GET /v1/cluster",
		"GET /healthz",
		"GET /metrics",
		"GET /debug/requests",
	}
}

// buildMux wires every Routes entry to its handler, instrumented
// through the obs HTTP middleware. The switch panics on a pattern it
// does not know, so Routes and the handler set cannot drift apart. A
// request no route matches gets the error envelope: 404, or 405 with
// the Allow header when a route of another method has its path.
func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	for _, route := range Routes() {
		var h http.Handler
		switch route {
		case "POST /v1/sweep":
			h = http.HandlerFunc(s.handleSweep)
		case "GET /v1/sweep/{id}":
			h = http.HandlerFunc(s.handleSweepStatus)
		case "POST /v1/point":
			h = http.HandlerFunc(s.handlePoint)
		case "POST /v1/search":
			h = http.HandlerFunc(s.handleSearch)
		case "POST /v1/cluster/register":
			h = http.HandlerFunc(s.handleClusterRegister)
		case "GET /v1/cluster":
			h = http.HandlerFunc(s.handleClusterStatus)
		case "GET /healthz":
			h = http.HandlerFunc(s.handleHealthz)
		case "GET /metrics":
			h = http.HandlerFunc(s.handleMetrics)
		case "GET /debug/requests":
			h = http.HandlerFunc(s.handleDebugRequests)
		default:
			panic("serve: route without a handler: " + route)
		}
		// The request shell (IDs, logs, panic recovery) sits inside the
		// metrics middleware so a recovered panic's 500 is still counted.
		mux.Handle(route, obs.InstrumentHandler(s.reg, route, s.withRequest(route, h)))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, pattern := mux.Handler(r); pattern == "" {
			h.ServeHTTP(&unrouted{ResponseWriter: w, r: r}, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// unrouted turns the mux's own answers to a request no route matches,
// which http.Error writes in plain text, into the error envelope: 404,
// and 405 keeping the Allow header the mux set. Other answers (the
// mux's path-cleaning redirects) pass through.
type unrouted struct {
	http.ResponseWriter
	r *http.Request
	// replaced is set once the envelope went out; the mux's plain-text
	// body is then dropped.
	replaced bool
}

func (u *unrouted) WriteHeader(code int) {
	req := u.r.Method + " " + u.r.URL.Path
	switch code {
	case http.StatusNotFound:
		writeError(u.ResponseWriter, code, "no route for "+req)
	case http.StatusMethodNotAllowed:
		writeError(u.ResponseWriter, code, "no route for "+req+"; allowed methods: "+u.Header().Get("Allow"))
	default:
		u.ResponseWriter.WriteHeader(code)
		return
	}
	u.replaced = true
}

func (u *unrouted) Write(b []byte) (int, error) {
	if u.replaced {
		return len(b), nil
	}
	return u.ResponseWriter.Write(b)
}

// writeJSON renders one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeAdmitError maps an admission failure, attaching the
// backpressure hint on 429 and logging the shed/drain decision with the
// request's ID.
func (s *Server) writeAdmitError(w http.ResponseWriter, r *http.Request, err *httpError) {
	if err.retryAfter > 0 {
		secs := int(err.retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	switch err.code {
	case http.StatusTooManyRequests:
		s.log(r.Context(), slog.LevelWarn, "request shed", "reason", err.msg)
	case http.StatusServiceUnavailable:
		s.log(r.Context(), slog.LevelWarn, "request refused while draining", "reason", err.msg)
	}
	writeError(w, err.code, err.msg)
}

// decodeStrict decodes exactly one JSON value into v, rejecting unknown
// fields and anything but whitespace after the value, so a client typo
// or a second concatenated body fails loudly instead of silently
// running the default — or only the first — experiment.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// decodeBody decodes a bounded request body strictly, answering 400 on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// handle is the request path of the three POST routes: decode req,
// resolve it into an experiment, validate and key it, admit it, wait for
// the job and encode render's envelope of it — 500 when the job failed.
// The decode, admit, wait and encode spans time the steps. early, when
// non-nil, may answer an admitted request before the wait (the sweep's
// stream and async modes) and reports whether it did.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, req request,
	render func(j *job, source string) any, early func(j *job, source string) bool) {
	tr := obs.TraceFrom(r.Context())
	dsp := tr.StartSpan("decode")
	ok := decodeBody(w, r, req)
	dsp.End()
	if !ok {
		return
	}
	e, err := req.resolve()
	if err == nil {
		err = e.validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, twinKey := e.key(), e.twinKey()
	parallelism, timeoutMS := req.serving()
	if parallelism <= 0 {
		parallelism = s.opts.Parallelism
	}
	asp := tr.StartSpan("admit")
	adm, aerr := s.admit(key, func(id string) *job {
		nj := newJob(id, key, e, parallelism, time.Duration(timeoutMS)*time.Millisecond)
		nj.requestID = obs.RequestIDFrom(r.Context())
		nj.trace = tr
		nj.twinKey = twinKey
		return nj
	})
	asp.End()
	if aerr != nil {
		s.writeAdmitError(w, r, aerr)
		return
	}
	j := adm.j
	if early != nil && early(j, adm.source) {
		return
	}
	wsp := tr.StartSpan("wait")
	select {
	case <-j.done:
		wsp.End()
	case <-r.Context().Done():
		wsp.End()
		// The client went away; the shared job keeps running for any
		// coalesced waiters and the result cache.
		return
	}
	code := http.StatusOK
	if j.snapshot().err != nil {
		code = http.StatusInternalServerError
	}
	esp := tr.StartSpan("encode")
	writeJSON(w, code, render(j, adm.source))
	esp.End()
}

// handleSweep serves POST /v1/sweep: synchronous by default, 202+poll
// with "wait": false, NDJSON progress streaming with "stream": true.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	render := func(j *job, source string) any { return sweepResponse(j, source, true) }
	s.handle(w, r, &req, render, func(j *job, source string) bool {
		switch {
		case req.Stream:
			s.streamSweep(w, r, j, source)
		case req.Wait != nil && !*req.Wait && source != "hit":
			// A hit falls through to the wait, which returns at once:
			// no reason to make the client poll for a cached grid.
			writeJSON(w, http.StatusAccepted, sweepResponse(j, source, false))
		default:
			return false
		}
		return true
	})
}

// sweepResponse renders a job as the sweep envelope. includeResult is
// false for 202 acknowledgements, which only need identity and state.
func sweepResponse(j *job, source string, includeResult bool) *SweepResponse {
	o := j.snapshot()
	resp := &SweepResponse{
		ID: j.id, Status: o.state.String(), Workload: string(j.exp.Workload),
		Backend: string(j.exp.Backend), Cache: source, RequestID: j.requestID,
	}
	if !includeResult {
		return resp
	}
	resp.Grid = o.grid
	resp.Report = o.report
	if o.err != nil {
		resp.Error = o.err.Error()
	}
	return resp
}

// streamSweep renders a sweep as NDJSON: progress events as the engine
// completes design points, then one terminal result or error event.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, j *job, source string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	enc := json.NewEncoder(w)
	ch, detach := j.subscribe()
	defer detach()
	flush()
	for {
		select {
		case p, ok := <-ch:
			if !ok {
				// Job finished (or was already finished): emit the
				// terminal event.
				resp := sweepResponse(j, source, true)
				if resp.Error != "" {
					_ = enc.Encode(StreamEvent{Event: "error", Error: resp.Error})
				} else {
					_ = enc.Encode(StreamEvent{Event: "result", Result: resp})
				}
				flush()
				return
			}
			_ = enc.Encode(StreamEvent{Event: "progress", Progress: &p})
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleSweepStatus serves GET /v1/sweep/{id} for sweep jobs; point and
// search job IDs are not sweeps and get the same 404 as unknown ones.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil || j.exp.Kind != jobSweep {
		writeError(w, http.StatusNotFound, "unknown sweep job "+id)
		return
	}
	o := j.snapshot()
	st := &JobStatus{
		ID: j.id, Status: o.state.String(), Workload: string(j.exp.Workload),
		Backend:   string(j.exp.Backend),
		RequestID: j.requestID,
		Coalesced: o.coalesced,
		AgeMS:     time.Since(j.created).Milliseconds(),
	}
	if o.last != nil {
		st.Done, st.Total = o.last.Done, o.last.Total
	}
	if o.state == jobDone || o.state == jobFailed {
		st.Grid = o.grid
		st.Report = o.report
		if o.last != nil {
			st.Done, st.Total = o.last.Total, o.last.Total
		}
		if o.err != nil {
			st.Error = o.err.Error()
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handlePoint serves POST /v1/point: one design point, synchronously,
// through the same queue, coalescing and cache as sweeps. Cluster
// coordinators post their remote points here (see httpCluster).
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	s.handle(w, r, &PointRequest{}, func(j *job, source string) any {
		o := j.snapshot()
		resp := &PointResponse{
			ID: j.id, Status: o.state.String(), Workload: string(j.exp.Workload),
			Backend: string(j.exp.Backend), Cache: source, Point: o.point,
			RequestID: j.requestID,
		}
		if o.err != nil {
			resp.Error = o.err.Error()
		}
		return resp
	}, nil)
}

// handleSearch serves POST /v1/search: an adaptive design-space search
// (analytic triage, exact confirmation — sccsim.SearchCtx),
// synchronously, through the same queue, coalescing and cache as
// sweeps.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.handle(w, r, &SearchRequest{}, func(j *job, source string) any {
		o := j.snapshot()
		resp := &SearchResponse{
			ID: j.id, Status: o.state.String(), Workload: string(j.exp.Workload),
			Cache: source, RequestID: j.requestID, Result: o.search,
		}
		if o.err != nil {
			resp.Error = o.err.Error()
		}
		return resp
	}, nil)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 with
// status "draining" once Shutdown has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := &Health{
		Status:        "ok",
		UptimeMS:      time.Since(s.start).Milliseconds(),
		Queued:        s.queued,
		Running:       int(s.reg.Gauge("serve.jobs_running").Value()),
		Workers:       s.opts.workers(),
		QueueDepth:    s.opts.queueDepth(),
		CachedResults: s.cache.len(),
	}
	draining := s.draining
	s.mu.Unlock()
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleMetrics serves GET /metrics with content negotiation: the
// default is the obs registry snapshot as one JSON object (counters and
// gauges as numbers, histograms with count/mean/quantiles/buckets — see
// obs.Registry.Snapshot); an Accept header naming text/plain or
// OpenMetrics switches to the Prometheus text exposition format. Either
// way the scrape first refreshes the Go-runtime gauges (go.*) and the
// in-flight coalesced-group gauge, so point-in-time state is current.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.CaptureRuntimeMetrics(s.reg)
	s.mu.Lock()
	s.reg.Gauge("serve.inflight_groups").Set(int64(len(s.inflight)))
	s.mu.Unlock()
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = s.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// handleDebugRequests serves GET /debug/requests: the ring buffer of
// recent requests, newest first, each with its per-span timing
// breakdown — the poor man's x/net/trace page, as JSON.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &DebugRequestsResponse{Requests: s.reqs.Snapshot()})
}
