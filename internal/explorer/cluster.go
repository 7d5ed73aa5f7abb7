// The cluster path: a coordinator offers each exact design point to a
// remote executor (worker nodes reached over the service's HTTP/JSON
// protocol), falls back to local simulation when a worker fails, and
// merges the results into a grid byte-identical to the single-node
// engine's. The merge is not a blind append: a worker's bytes become a
// point only through DecodePointEnvelope, every remote point is
// validated against the configuration it was asked for (checkPoint, in
// offerRemote) before the engine accepts it, and Sweep lays out the
// engine's in-order points against the plan it built itself, so a
// confused or malicious worker can fail a point but never corrupt a
// grid (FuzzShardMerge hammers exactly this boundary).

package explorer

import (
	"context"
	"encoding/json"
	"fmt"

	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

// RemotePointFunc executes one design point somewhere else — on a
// worker node, over whatever transport the caller speaks — and returns
// the simulated point. Implementations own retries and worker
// selection; the engine only distinguishes success (the point is
// merged) from failure (the point is simulated locally instead).
type RemotePointFunc func(ctx context.Context, w Workload, spec PointSpec) (*Point, error)

// GridSpecs returns the design-space grid's point list in job order
// (SCC-size-major, the order Sweep runs and assembleGrid lays out) —
// the shard plan a coordinator fans out.
func GridSpecs() []PointSpec {
	specs := make([]PointSpec, 0, len(sysmodel.SCCSizes)*len(sysmodel.ProcsPerClusterSweep))
	for _, size := range sysmodel.SCCSizes {
		for _, ppc := range sysmodel.ProcsPerClusterSweep {
			specs = append(specs, PointSpec{PPC: ppc, SCCBytes: size})
		}
	}
	return specs
}

// checkPoint validates a point produced elsewhere against the
// configuration it was asked for.
func checkPoint(want sysmodel.Config, pt *Point) error {
	if pt == nil || pt.Result == nil {
		return fmt.Errorf("explorer: partial result for %dP/%dB has no simulation result", want.ProcsPerCluster, want.SCCBytes)
	}
	if pt.Config != want {
		return fmt.Errorf("explorer: partial result for %dP/%dB carries config %+v, want %+v",
			want.ProcsPerCluster, want.SCCBytes, pt.Config, want)
	}
	return nil
}

// pointEnvelope mirrors the fields of the service's point response that
// the coordinator consumes. Decoding is deliberately permissive about
// extra fields (the envelope also carries ids and cache provenance) and
// strict about the ones that matter.
type pointEnvelope struct {
	Status string `json:"status"`
	Point  *Point `json:"point"`
	Error  string `json:"error"`
}

// DecodePointEnvelope parses a worker's `POST /v1/point` response body
// into the simulated point. Malformed JSON, non-done statuses, worker
// errors and missing results all return an error — the caller retries
// or falls back, it never merges a suspect payload.
func DecodePointEnvelope(raw []byte) (*Point, error) {
	var env pointEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("explorer: malformed point envelope: %w", err)
	}
	if env.Error != "" {
		return nil, fmt.Errorf("explorer: worker reported: %s", env.Error)
	}
	if env.Status != "done" {
		return nil, fmt.Errorf("explorer: point envelope status %q, want done", env.Status)
	}
	if env.Point == nil || env.Point.Result == nil {
		return nil, fmt.Errorf("explorer: point envelope carries no result")
	}
	return env.Point, nil
}

// offerRemote wraps an exact job so its point is offered to eng.Remote
// first and simulated locally (run) when the remote call fails or its
// result fails checkPoint — unless the run itself is being cancelled,
// which must propagate, not degrade. Metrics (when enabled) count the
// split: explorer.cluster_remote_points ran remotely,
// explorer.cluster_local_points ran here (including fallbacks).
func offerRemote(w Workload, cfg sysmodel.Config, eng EngineOptions, run func(context.Context, sim.Tracer) (*Point, error)) func(context.Context, sim.Tracer) (*Point, error) {
	spec := PointSpec{PPC: cfg.ProcsPerCluster, SCCBytes: cfg.SCCBytes}
	return func(ctx context.Context, tr sim.Tracer) (*Point, error) {
		if pt, err := eng.Remote(ctx, w, spec); err == nil && checkPoint(cfg, pt) == nil {
			eng.Metrics.Counter("explorer.cluster_remote_points").Inc()
			return pt, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eng.Metrics.Counter("explorer.cluster_local_points").Inc()
		return run(ctx, tr)
	}
}
