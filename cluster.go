// Cluster execution: the facade's half of the coordinator/worker
// protocol. A Remote executes single design points somewhere else;
// WithCluster hands one to the sweep engine, which offers every grid
// point to it and simulates locally whenever the remote path fails —
// so a cluster sweep returns the same bytes as a single-node sweep, or
// an error, never silently degraded data. The serve layer's HTTP
// client, built per sweep from its worker registry and the sweep's own
// experiment, is the standard Remote.
package sccsim

import "context"

// Remote executes design points on other nodes. RunPoint receives only
// the workload and the design point: the Remote already knows the rest
// of the experiment (problem scale, simulator options, verification,
// backend, axes) and must run the point exactly as the sweep would.
// It returns the simulated point or an error; the sweep engine treats
// any error — and any returned point that fails validation against the
// requested configuration — as "simulate it locally instead", so an
// implementation can be aggressive about timeouts and give up early.
// Implementations must be safe for concurrent use: the engine calls
// RunPoint from its worker pool.
type Remote interface {
	// RunPoint executes the design point (procsPerCluster, sccBytes)
	// of workload w remotely.
	RunPoint(ctx context.Context, w Workload, procsPerCluster, sccBytes int) (*Point, error)
}

// WithCluster enables sharded sweep execution: every design point of a
// sweep is offered to r (falling back to local simulation when the
// remote fails), and accepted results are validated and merged into a
// grid byte-identical to a single-node run. Exact backend only — the
// analytic backend predicts the whole grid from one profile pass, so
// there is nothing to shard — and ignored by Do, which is already a
// single point.
func WithCluster(r Remote) Opt { return func(c *expCfg) { c.remote = r } }
