// Cluster execution: the facade's half of the coordinator/worker
// protocol. A Remote executes single design points somewhere else;
// WithCluster hands one to the sweep engine, which offers every grid
// point to it and simulates locally whenever the remote path fails —
// so a cluster sweep returns the same bytes as a single-node sweep, or
// an error, never silently degraded data. HTTPCluster is the standard
// Remote: it speaks the sccserve `POST /v1/point` wire protocol to a
// set of worker nodes with round-robin selection, failure cooldowns
// and bounded retry backoff. The serve layer builds one per sweep from
// its worker registry; embedders can point one at any worker list.
package sccsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sccsim/internal/explorer"
	"sccsim/internal/trace"
)

// TraceStore is the trace-cache contract sweeps consult before running
// a workload generator (trace.Store): the on-disk cache is the
// single-node implementation, the peer-fetching cache the fleet one.
type TraceStore = trace.Store

// WithTraceStore roots the experiment's persistent trace cache at an
// already-constructed store — the programmatic sibling of
// WithTraceCache(dir), for callers that need a cache the directory
// form cannot express (a peer-fetching trace.PeerCache that pulls
// entries from other nodes by content digest, an instrumented wrapper,
// a test double). When both are set, the store wins.
func WithTraceStore(st TraceStore) Opt { return func(c *expCfg) { c.traceStore = st } }

// RemotePoint is one design-point job offered to a Remote: the
// workload, the point on the paper's default system, and the resolved
// experiment configuration the worker must reproduce exactly —
// problem scale, simulator data options, verification, backend. It
// carries only what crosses the wire; observers (metrics, tracers)
// stay with the coordinator.
type RemotePoint struct {
	// Workload is the benchmark to run.
	Workload Workload
	// ProcsPerCluster and SCCBytes name the design point.
	ProcsPerCluster int
	SCCBytes        int
	// Scale is the resolved problem sizing (never a preset name: the
	// coordinator resolves presets so worker defaults cannot drift).
	Scale Scale
	// Sim is the simulator options; only data fields travel.
	Sim Options
	// Verify attaches the coherence invariant checker on the worker.
	Verify bool
	// Backend is the resolved execution backend ("exact" or "analytic").
	Backend string
	// Axes is the resolved architecture-axis overlay (zero: paper
	// defaults). Workers that predate the axes fields reject the request
	// (strict decoding) and the coordinator simulates locally — a
	// mixed-version fleet degrades to correct-but-local, never to a
	// wrong-configuration result.
	Axes Axes
}

// Remote executes design points on other nodes. RunPoint returns the
// simulated point or an error; the sweep engine treats any error — and
// any returned point that fails validation against the requested
// configuration — as "simulate it locally instead", so an
// implementation can be aggressive about timeouts and give up early.
// Implementations must be safe for concurrent use: the engine calls
// RunPoint from its worker pool.
type Remote interface {
	// RunPoint executes one design point remotely.
	RunPoint(ctx context.Context, rp RemotePoint) (*Point, error)
}

// WithCluster enables sharded sweep execution: every design point of a
// sweep is offered to r (falling back to local simulation when the
// remote fails), and accepted results are validated and merged into a
// grid byte-identical to a single-node run. Exact backend only — the
// analytic backend predicts the whole grid from one profile pass, so
// there is nothing to shard — and ignored by Do, which is already a
// single point. See NewHTTPCluster for the standard implementation.
func WithCluster(r Remote) Opt { return func(c *expCfg) { c.remote = r } }

// remoteFunc adapts the experiment's Remote to the engine's per-point
// callback, capturing the resolved experiment configuration so every
// offered job carries exactly what the local fallback would simulate.
func (c expCfg) remoteFunc() explorer.RemotePointFunc {
	r := c.remote
	rp := RemotePoint{
		Scale: c.scale, Sim: c.sim,
		Verify:  c.sim.Verify != nil,
		Backend: string(c.backend),
		Axes:    c.axes,
	}
	return func(ctx context.Context, w explorer.Workload, spec explorer.PointSpec) (*explorer.Point, error) {
		job := rp
		job.Workload = w
		job.ProcsPerCluster = spec.PPC
		job.SCCBytes = spec.SCCBytes
		return r.RunPoint(ctx, job)
	}
}

// ClusterSpec is the declarative form of an HTTP worker cluster — the
// data a config file or service flag can carry, converted by Spec.Opts
// into WithCluster(NewHTTPCluster(spec)). The zero value of each knob
// keeps its default.
type ClusterSpec struct {
	// Workers lists worker base URLs (e.g. "http://node1:8080"). An
	// empty list disables remote execution.
	Workers []string `json:"workers,omitempty"`
	// Retries is how many workers a point is offered to before falling
	// back to local simulation (0: 2).
	Retries int `json:"retries,omitempty"`
	// BackoffMS is the base retry backoff in milliseconds, doubled per
	// attempt and capped at 8x (0: 50).
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// TimeoutMS caps each remote point attempt (0: 120000).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CooldownMS is how long a failed worker is skipped before being
	// offered jobs again (0: 3000).
	CooldownMS int64 `json:"cooldown_ms,omitempty"`
}

// clusterWorker is one worker node's selection state.
type clusterWorker struct {
	url       string
	downUntil time.Time
}

// HTTPCluster is the standard Remote: design points are posted to
// worker sccserve nodes as `POST /v1/point` requests (always with an
// explicit scale_spec, so worker-side preset defaults cannot drift the
// result) and responses are decoded and validated exactly as the
// sweep merge requires. Workers are picked round-robin; a failed
// worker sits out a cooldown; each point gets a bounded number of
// attempts with exponential backoff before the caller's local
// fallback takes over. Safe for concurrent use.
type HTTPCluster struct {
	client   *http.Client
	retries  int
	backoff  time.Duration
	timeout  time.Duration
	cooldown time.Duration

	mu      sync.Mutex
	workers []clusterWorker
	next    int
}

// NewHTTPCluster builds an HTTP worker cluster from its declarative
// spec. Worker URLs are normalized (trailing slashes dropped); an
// empty worker list is allowed and makes every RunPoint fail — i.e.
// the sweep runs fully local.
func NewHTTPCluster(spec ClusterSpec) *HTTPCluster {
	c := &HTTPCluster{
		client:   &http.Client{},
		retries:  spec.Retries,
		backoff:  time.Duration(spec.BackoffMS) * time.Millisecond,
		timeout:  time.Duration(spec.TimeoutMS) * time.Millisecond,
		cooldown: time.Duration(spec.CooldownMS) * time.Millisecond,
	}
	if c.retries <= 0 {
		c.retries = 2
	}
	if c.backoff <= 0 {
		c.backoff = 50 * time.Millisecond
	}
	if c.timeout <= 0 {
		c.timeout = 120 * time.Second
	}
	if c.cooldown <= 0 {
		c.cooldown = 3 * time.Second
	}
	for _, u := range spec.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			c.workers = append(c.workers, clusterWorker{url: u})
		}
	}
	return c
}

// Workers returns the configured worker base URLs in selection order.
func (c *HTTPCluster) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := make([]string, len(c.workers))
	for i, w := range c.workers {
		urls[i] = w.url
	}
	return urls
}

// pick returns the next worker to offer a job to: round-robin over
// workers not in cooldown, falling back to plain round-robin when the
// whole fleet is cooling down (a lone flaky worker beats none).
func (c *HTTPCluster) pick() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.workers)
	if n == 0 {
		return "", false
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		w := &c.workers[(c.next+i)%n]
		if now.After(w.downUntil) {
			c.next = (c.next + i + 1) % n
			return w.url, true
		}
	}
	u := c.workers[c.next%n].url
	c.next = (c.next + 1) % n
	return u, true
}

// markDown puts a worker in cooldown after a failed attempt.
func (c *HTTPCluster) markDown(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.workers {
		if c.workers[i].url == url {
			c.workers[i].downUntil = time.Now().Add(c.cooldown)
		}
	}
}

// wirePoint is the `POST /v1/point` request body (the serve package's
// wire schema, mirrored here because serve imports this package; the
// cluster integration tests pin the two in lockstep). The server
// decodes strictly, so only known fields may appear.
type wirePoint struct {
	Workload        string     `json:"workload"`
	Backend         string     `json:"backend,omitempty"`
	ScaleSpec       *wireScale `json:"scale_spec,omitempty"`
	ProcsPerCluster int        `json:"procs_per_cluster,omitempty"`
	SCCBytes        int        `json:"scc_bytes,omitempty"`
	Sim             *wireSim   `json:"sim,omitempty"`
	Axes            *Axes      `json:"axes,omitempty"`
	TimeoutMS       int64      `json:"timeout_ms,omitempty"`
}

// wireScale mirrors serve's ScaleSpec.
type wireScale struct {
	BarnesBodies  int   `json:"barnes_bodies,omitempty"`
	BarnesSteps   int   `json:"barnes_steps,omitempty"`
	MP3DParticles int   `json:"mp3d_particles,omitempty"`
	MP3DSteps     int   `json:"mp3d_steps,omitempty"`
	MultiprogRefs int   `json:"multiprog_refs,omitempty"`
	CholeskyGridW int   `json:"cholesky_grid_w,omitempty"`
	CholeskyGridH int   `json:"cholesky_grid_h,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
}

// wireSim mirrors serve's SimSpec.
type wireSim struct {
	WriteBufferDepth int    `json:"write_buffer_depth,omitempty"`
	BusOccupancy     int    `json:"bus_occupancy,omitempty"`
	SwitchPenalty    uint64 `json:"switch_penalty,omitempty"`
	MemBanks         int    `json:"mem_banks,omitempty"`
	MemBankOccupancy int    `json:"mem_bank_occupancy,omitempty"`
	VictimEntries    int    `json:"victim_entries,omitempty"`
	WarmupRefs       uint64 `json:"warmup_refs,omitempty"`
	Verify           bool   `json:"verify,omitempty"`
}

// encode builds the wire body for one remote point job.
func (c *HTTPCluster) encode(rp RemotePoint) ([]byte, error) {
	req := wirePoint{
		Workload:        string(rp.Workload),
		Backend:         rp.Backend,
		ProcsPerCluster: rp.ProcsPerCluster,
		SCCBytes:        rp.SCCBytes,
		TimeoutMS:       c.timeout.Milliseconds(),
		ScaleSpec: &wireScale{
			BarnesBodies: rp.Scale.BarnesBodies, BarnesSteps: rp.Scale.BarnesSteps,
			MP3DParticles: rp.Scale.MP3DParticles, MP3DSteps: rp.Scale.MP3DSteps,
			MultiprogRefs: rp.Scale.MultiprogRefs,
			CholeskyGridW: rp.Scale.CholeskyGridW, CholeskyGridH: rp.Scale.CholeskyGridH,
			Seed: rp.Scale.Seed,
		},
	}
	sim := wireSim{
		WriteBufferDepth: rp.Sim.WriteBufferDepth,
		BusOccupancy:     rp.Sim.BusOccupancy,
		SwitchPenalty:    rp.Sim.SwitchPenalty,
		MemBanks:         rp.Sim.MemBanks,
		MemBankOccupancy: rp.Sim.MemBankOccupancy,
		VictimEntries:    rp.Sim.VictimEntries,
		WarmupRefs:       rp.Sim.WarmupRefs,
		Verify:           rp.Verify,
	}
	if sim != (wireSim{}) {
		req.Sim = &sim
	}
	if !rp.Axes.IsZero() {
		a := rp.Axes
		req.Axes = &a
	}
	return json.Marshal(req)
}

// RunPoint posts the design point to a worker and decodes the result,
// retrying on other workers (with exponential backoff and per-worker
// cooldown) before giving up. Any terminal error means "the caller
// simulates locally"; context cancellation aborts immediately.
func (c *HTTPCluster) RunPoint(ctx context.Context, rp RemotePoint) (*Point, error) {
	body, err := c.encode(rp)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			d := c.backoff << (attempt - 1)
			if max := c.backoff << 3; d > max {
				d = max
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		url, ok := c.pick()
		if !ok {
			return nil, fmt.Errorf("sccsim: cluster has no workers")
		}
		pt, err := c.post(ctx, url, body)
		if err == nil {
			return pt, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.markDown(url)
		lastErr = fmt.Errorf("worker %s: %w", url, err)
	}
	return nil, fmt.Errorf("sccsim: remote point failed after %d attempts: %w", c.retries+1, lastErr)
}

// post runs one attempt against one worker.
func (c *HTTPCluster) post(ctx context.Context, url string, body []byte) (*Point, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url+"/v1/point", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(raw))
	}
	return explorer.DecodePointEnvelope(raw)
}

// firstLine truncates an error body for diagnostics.
func firstLine(raw []byte) string {
	s := strings.TrimSpace(string(raw))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
