// Wire types: the JSON request and response bodies of the v1 API. Each
// POST route keeps its own body type, so strict decoding rejects a field
// only another route takes; each body resolves into one experiment
// (experiment.go), the value every later step of the request path reads.

package serve

import (
	"sccsim"
	"sccsim/internal/obs"
)

// ScaleSpec is the wire form of sccsim.Scale: explicit problem sizes
// for requests that need something other than the named "paper" and
// "quick" scales. Zero fields keep the Go zero value (the paper's
// configuration), matching the library. It has sccsim.Scale's fields in
// sccsim.Scale's order, so the two convert into each other directly.
type ScaleSpec struct {
	BarnesBodies  int   `json:"barnes_bodies,omitempty"`
	BarnesSteps   int   `json:"barnes_steps,omitempty"`
	MP3DParticles int   `json:"mp3d_particles,omitempty"`
	MP3DSteps     int   `json:"mp3d_steps,omitempty"`
	MultiprogRefs int   `json:"multiprog_refs,omitempty"`
	CholeskyGridW int   `json:"cholesky_grid_w,omitempty"`
	CholeskyGridH int   `json:"cholesky_grid_h,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
}

// SimSpec is the wire form of the simulator options — the data fields
// of sccsim.Options plus the verification toggle. Zero fields mean the
// paper's model, as in the library.
type SimSpec struct {
	WriteBufferDepth int    `json:"write_buffer_depth,omitempty"`
	BusOccupancy     int    `json:"bus_occupancy,omitempty"`
	SwitchPenalty    uint64 `json:"switch_penalty,omitempty"`
	MemBanks         int    `json:"mem_banks,omitempty"`
	MemBankOccupancy int    `json:"mem_bank_occupancy,omitempty"`
	VictimEntries    int    `json:"victim_entries,omitempty"`
	WarmupRefs       uint64 `json:"warmup_refs,omitempty"`
	// Verify attaches the coherence invariant checker to every run.
	Verify bool `json:"verify,omitempty"`
}

// request is what the three POST bodies share: one resolution into an
// experiment, and the serving knobs the experiment leaves out.
type request interface {
	// resolve turns the body into its experiment.
	resolve() (experiment, error)
	// serving returns the job's engine parallelism (0: the server
	// default) and its timeout in milliseconds (0: the server default).
	serving() (parallelism int, timeoutMS int64)
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	// Workload is one of barnes-hut, mp3d, cholesky, multiprog.
	Workload string `json:"workload"`
	// Backend selects the execution engine: "exact" (default, the
	// cycle simulator) or "analytic" (the reuse-distance model — the
	// full grid from one profile pass, orders of magnitude faster, with
	// the accuracy contract documented in docs/API.md). The backend
	// changes the numbers, so it is part of the content key: exact and
	// analytic requests never coalesce or share cache entries.
	Backend string `json:"backend,omitempty"`
	// Scale names a problem-size preset: "paper" (default) or "quick".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's generator seed (0: keep the preset's).
	Seed int64 `json:"seed,omitempty"`
	// ScaleSpec sets explicit problem sizes; when present it wins over
	// Scale and Seed.
	ScaleSpec *ScaleSpec `json:"scale_spec,omitempty"`
	// Sim sets simulator options beyond the architecture (ablations,
	// verification).
	Sim *SimSpec `json:"sim,omitempty"`
	// Axes overlays architecture-axis overrides — line_bytes, assoc,
	// repl, hierarchy, l1_bytes — on every configuration in the grid
	// (absent or zero: the paper's defaults, byte-identical results and
	// unchanged content keys). The analytic backend models associativity
	// only; combining it with other non-default axes is a 400.
	Axes *sccsim.Axes `json:"axes,omitempty"`
	// Parallelism bounds the engine worker pool for this job
	// (0: the server's default). Results are identical for any value,
	// so it is excluded from the coalescing key.
	Parallelism int `json:"parallelism,omitempty"`
	// Wait selects synchronous (true, the default) or asynchronous
	// (false: 202 + poll GET /v1/sweep/{id}) handling.
	Wait *bool `json:"wait,omitempty"`
	// Stream makes the response an NDJSON stream of engine progress
	// events followed by the result. Implies waiting.
	Stream bool `json:"stream,omitempty"`
	// TimeoutMS caps this job's execution in milliseconds; the server's
	// job timeout is the ceiling (0: the server default). The first
	// request to create a job sets its deadline; coalesced requests
	// share it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (q *SweepRequest) resolve() (experiment, error) {
	e := experiment{Kind: jobSweep, Sim: absentIfZero(q.Sim), Axes: absentIfZero(q.Axes)}
	return e.resolve(q.Workload, q.Backend, q.Scale, q.Seed, q.ScaleSpec)
}

func (q *SweepRequest) serving() (int, int64) { return q.Parallelism, q.TimeoutMS }

// PointRequest is the body of POST /v1/point: one design point instead
// of the whole grid. Always synchronous.
type PointRequest struct {
	// Workload is one of barnes-hut, mp3d, cholesky, multiprog.
	Workload string `json:"workload"`
	// Backend selects the execution engine: "exact" (default) or
	// "analytic" (see SweepRequest.Backend).
	Backend string `json:"backend,omitempty"`
	// Scale names a problem-size preset: "paper" (default) or "quick".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's generator seed (0: keep the preset's).
	Seed int64 `json:"seed,omitempty"`
	// ScaleSpec sets explicit problem sizes; wins over Scale and Seed.
	ScaleSpec *ScaleSpec `json:"scale_spec,omitempty"`
	// ProcsPerCluster and SCCBytes name the design point on the paper's
	// default system (zero fields: the 1P/64KB baseline).
	ProcsPerCluster int `json:"procs_per_cluster,omitempty"`
	SCCBytes        int `json:"scc_bytes,omitempty"`
	// Sim sets simulator options beyond the architecture.
	Sim *SimSpec `json:"sim,omitempty"`
	// Axes overlays architecture-axis overrides on the point's
	// configuration (see SweepRequest.Axes for semantics).
	Axes *sccsim.Axes `json:"axes,omitempty"`
	// TimeoutMS caps this job's execution in milliseconds (0: server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (q *PointRequest) resolve() (experiment, error) {
	e := experiment{
		Kind: jobPoint, PPC: q.ProcsPerCluster, SCCBytes: q.SCCBytes,
		Sim: absentIfZero(q.Sim), Axes: absentIfZero(q.Axes),
	}
	if e.PPC == 0 {
		e.PPC = 1
	}
	if e.SCCBytes == 0 {
		e.SCCBytes = 64 * 1024
	}
	return e.resolve(q.Workload, q.Backend, q.Scale, q.Seed, q.ScaleSpec)
}

func (q *PointRequest) serving() (int, int64) { return 0, q.TimeoutMS }

// SearchRequest is the body of POST /v1/search: an adaptive
// design-space search (sccsim.SearchCtx) instead of an exhaustive
// sweep. Always synchronous. There is no backend field — the search
// drives both backends itself (analytic triage, exact confirmation).
type SearchRequest struct {
	// Workload is one of barnes-hut, mp3d, cholesky, multiprog.
	Workload string `json:"workload"`
	// Scale names a problem-size preset: "paper" (default) or "quick".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's generator seed (0: keep the preset's).
	// Distinct from Search.Seed, which seeds the random strategy.
	Seed int64 `json:"seed,omitempty"`
	// ScaleSpec sets explicit problem sizes; wins over Scale and Seed.
	ScaleSpec *ScaleSpec `json:"scale_spec,omitempty"`
	// Search declares the space, objectives, constraints and
	// strategy/budget knobs; the zero value searches the paper grid for
	// the cycles-vs-area frontier adaptively.
	Search sccsim.SearchSpec `json:"search"`
	// Parallelism bounds the exact-confirmation worker pool (0: the
	// server's default). Results are identical for any value, so it is
	// excluded from the coalescing key.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS caps this job's execution in milliseconds (0: server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (q *SearchRequest) resolve() (experiment, error) {
	search := q.Search
	search.Axes = absentIfZero(search.Axes)
	e := experiment{Kind: jobSearch, Search: &search}
	return e.resolve(q.Workload, "", q.Scale, q.Seed, q.ScaleSpec)
}

func (q *SearchRequest) serving() (int, int64) { return q.Parallelism, q.TimeoutMS }

// SearchResponse is the body of POST /v1/search.
type SearchResponse struct {
	// ID names the job; coalesced requests share the executing job's ID.
	ID string `json:"id"`
	// Status is done or failed.
	Status string `json:"status"`
	// Workload echoes the request.
	Workload string `json:"workload"`
	// Cache says how admission resolved (see SweepResponse.Cache).
	Cache string `json:"cache,omitempty"`
	// RequestID identifies the creating request (see
	// SweepResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Result is the completed search: the exact-confirmed frontier, the
	// best cost/performance point, all simulated points, and the
	// per-stage accounting (present when done).
	Result *sccsim.SearchResult `json:"result,omitempty"`
	// Error describes the failure (present when failed).
	Error string `json:"error,omitempty"`
}

// SweepResponse is the terminal body of a sweep request: the full
// design-space grid (the same JSON encoding sccsim.SweepCtx's Grid
// marshals to, byte for byte) plus the engine's sweep report.
type SweepResponse struct {
	// ID names the job; coalesced requests share the executing job's ID.
	ID string `json:"id"`
	// Status is queued, running, done or failed.
	Status string `json:"status"`
	// Workload echoes the request.
	Workload string `json:"workload"`
	// Backend is the resolved execution backend ("exact" or
	// "analytic"), echoed so clients see which engine produced the grid
	// even when they relied on the default.
	Backend string `json:"backend"`
	// Cache says how admission resolved: "miss" (this request created
	// the job), "coalesced" (attached to an identical in-flight job) or
	// "hit" (served from the result cache).
	Cache string `json:"cache,omitempty"`
	// RequestID is the X-Request-ID of the request that created the job
	// — the join key to its structured log lines and run manifest. A
	// coalesced or cache-hit response reports the creator's ID (its own
	// ID is in the response header).
	RequestID string `json:"request_id,omitempty"`
	// Grid is the 8x4 design-space result (present when done).
	Grid *sccsim.Grid `json:"grid,omitempty"`
	// Report is the engine's sweep telemetry (present when done).
	Report *sccsim.SweepReport `json:"report,omitempty"`
	// Error describes the failure (present when failed).
	Error string `json:"error,omitempty"`
}

// PointResponse is the body of POST /v1/point.
type PointResponse struct {
	// ID names the job; coalesced requests share the executing job's ID.
	ID string `json:"id"`
	// Status is done or failed.
	Status string `json:"status"`
	// Workload echoes the request.
	Workload string `json:"workload"`
	// Backend is the resolved execution backend (see
	// SweepResponse.Backend).
	Backend string `json:"backend"`
	// Cache says how admission resolved (see SweepResponse.Cache).
	Cache string `json:"cache,omitempty"`
	// RequestID identifies the creating request (see
	// SweepResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Point is the simulated design point (present when done).
	Point *sccsim.Point `json:"point,omitempty"`
	// Error describes the failure (present when failed).
	Error string `json:"error,omitempty"`
}

// JobStatus is the body of GET /v1/sweep/{id}: an async job's state,
// its latest engine progress, and — once finished — the same grid,
// report and error fields a synchronous response carries.
type JobStatus struct {
	// ID names the job.
	ID string `json:"id"`
	// Status is queued, running, done or failed.
	Status string `json:"status"`
	// Workload the job runs.
	Workload string `json:"workload"`
	// Backend is the job's resolved execution backend (see
	// SweepResponse.Backend).
	Backend string `json:"backend"`
	// RequestID identifies the creating request (see
	// SweepResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Done and Total count completed and scheduled design points from
	// the engine's latest progress event (0/0 before the first).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Coalesced counts requests that attached beyond the first.
	Coalesced int `json:"coalesced"`
	// AgeMS is milliseconds since the job was admitted.
	AgeMS int64 `json:"age_ms"`
	// Grid, Report and Error mirror SweepResponse once the job ends.
	Grid   *sccsim.Grid        `json:"grid,omitempty"`
	Report *sccsim.SweepReport `json:"report,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// StreamEvent is one NDJSON line of a streaming sweep response: a
// progress event while the sweep runs, then exactly one terminal
// "result" or "error" event.
type StreamEvent struct {
	// Event is "progress", "result" or "error".
	Event string `json:"event"`
	// Progress carries the engine event (event == "progress").
	Progress *sccsim.Progress `json:"progress,omitempty"`
	// Result carries the terminal response (event == "result").
	Result *SweepResponse `json:"result,omitempty"`
	// Error describes the failure (event == "error").
	Error string `json:"error,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	// Status is "ok" while serving and "draining" during shutdown (with
	// a 503 status code).
	Status string `json:"status"`
	// UptimeMS is milliseconds since the server started.
	UptimeMS int64 `json:"uptime_ms"`
	// Queued and Running count admitted jobs by state; Workers and
	// QueueDepth echo the server's limits.
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// CachedResults is the LRU result cache's population.
	CachedResults int `json:"cached_results"`
}

// DebugRequestsResponse is the body of GET /debug/requests: the ring
// buffer of recently completed requests, newest first, each with its
// per-span timing breakdown.
type DebugRequestsResponse struct {
	// Requests holds the retained requests (bounded by the server's
	// DebugRequests option).
	Requests []obs.RequestRecord `json:"requests"`
}

// errorBody is the JSON envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
