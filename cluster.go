// Cluster execution: the facade's half of the coordinator/worker
// protocol. A Remote executes single design points somewhere else;
// WithCluster hands one to the sweep engine, which offers every grid
// point to it and simulates locally whenever the remote path fails —
// so a cluster sweep returns the same bytes as a single-node sweep, or
// an error, never silently degraded data. The serve layer's HTTP
// client, built per sweep from its worker registry, is the standard
// Remote.
package sccsim

import (
	"context"

	"sccsim/internal/explorer"
)

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
// single point.
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
