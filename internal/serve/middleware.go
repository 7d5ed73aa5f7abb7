// Request middleware: the per-request observability shell every route
// runs inside. It assigns (or honors) the X-Request-ID, opens the
// request's span trace, emits the structured start/finish log lines,
// recovers handler panics into a metered 500, and records the finished
// request into the /debug/requests ring. The obs.InstrumentHandler
// metrics middleware wraps *outside* this one, so a panic converted to
// a 500 here still lands in the status_5xx counters.

package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"sccsim/internal/obs"
)

// withRequest wraps h with the request-scoped observability shell for
// one route.
func (s *Server) withRequest(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tr := obs.NewTrace(id)
		ctx := obs.ContextWithRequestID(r.Context(), id)
		ctx = obs.ContextWithTrace(ctx, tr)
		r = r.WithContext(ctx)
		// The metrics middleware outside already wrapped the writer; share
		// its recorder so both layers agree on the response status.
		sw, ok := w.(*obs.StatusRecorder)
		if !ok {
			sw = obs.NewStatusRecorder(w)
		}
		start := time.Now()
		s.log(ctx, slog.LevelInfo, "request start", "method", r.Method, "route", route)
		defer func() {
			if p := recover(); p != nil {
				s.reg.Counter("serve.panics").Inc()
				s.log(ctx, slog.LevelError, "handler panic",
					"method", r.Method, "route", route,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				// A panic after the response started cannot be papered
				// over; otherwise answer with the uniform error envelope.
				if !sw.Wrote() {
					writeError(sw, http.StatusInternalServerError, "internal server error")
				}
			}
			dur := time.Since(start)
			s.log(ctx, slog.LevelInfo, "request finish",
				"method", r.Method, "route", route,
				"status", sw.Status(), "dur_ms", dur.Milliseconds())
			s.reqs.Record(obs.RequestRecord{
				ID: id, Method: r.Method, Route: route,
				Status: sw.Status(), Start: start, DurNS: dur.Nanoseconds(),
				Spans: tr.Snapshot(),
			})
		}()
		h.ServeHTTP(sw, r)
	})
}

// log emits one structured log line with the context's request ID
// attached; a nil logger disables the site.
func (s *Server) log(ctx context.Context, level slog.Level, msg string, attrs ...any) {
	if s.logger == nil {
		return
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		attrs = append(attrs, "request_id", id)
	}
	s.logger.Log(ctx, level, msg, attrs...)
}

// jobLog emits one structured log line about a job, carrying the job id
// and the request ID that created it.
func (s *Server) jobLog(j *job, level slog.Level, msg string, attrs ...any) {
	if s.logger == nil {
		return
	}
	attrs = append(attrs,
		"job", j.id, "request_id", j.requestID,
		"workload", string(j.exp.Workload), "backend", string(j.exp.Backend))
	s.logger.Log(context.Background(), level, msg, attrs...)
}
