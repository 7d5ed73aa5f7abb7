// The cluster path: a coordinator offers each exact design point to a
// remote executor (worker nodes reached over the service's HTTP/JSON
// protocol), falls back to local simulation when a worker fails, and
// merges the results into a grid byte-identical to the single-node
// engine's. The merge is not a blind append: every remote result is
// validated against the configuration it was asked for, and Sweep
// merges through an Assembler that rejects unknown slots, duplicates,
// and configuration mismatches, so a confused or malicious worker can
// fail a point but never corrupt a grid (FuzzShardMerge hammers exactly
// this property).

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

// Assembler accumulates per-point partial results into a design-space
// grid. It is the coordinator's merge point: Put validates each partial
// result against the shard plan — the slot must exist, be empty, and
// the point's configuration must match it exactly — so malformed,
// duplicated or misdirected results are rejected as errors instead of
// corrupting the grid. Not safe for concurrent use; Sweep calls it from
// one goroutine.
type Assembler struct {
	w      Workload
	axes   sysmodel.Axes
	specs  []PointSpec
	index  map[PointSpec]int
	points []*Point
	filled int
}

// NewAssembler builds an assembler over the full design-space grid for
// one workload, validating every partial result against the sweep's
// architecture axes (the zero value is the paper's default machine).
func NewAssembler(w Workload, axes sysmodel.Axes) *Assembler {
	specs := GridSpecs()
	idx := make(map[PointSpec]int, len(specs))
	for i, sp := range specs {
		idx[sp] = i
	}
	return &Assembler{
		w: w, axes: axes, specs: specs, index: idx,
		points: make([]*Point, len(specs)),
	}
}

// Specs returns the shard plan: every grid point in job order.
func (a *Assembler) Specs() []PointSpec {
	return append([]PointSpec(nil), a.specs...)
}

// Check validates a partial result against its slot without merging it:
// nil or incomplete points, unknown slots, and configuration mismatches
// are errors. Every remote result passes the same configuration check
// (checkPoint) before the engine accepts it, so a bad worker response
// triggers local fallback rather than a failed sweep.
func (a *Assembler) Check(spec PointSpec, pt *Point) error {
	if _, ok := a.index[spec]; !ok {
		return fmt.Errorf("explorer: point %dP/%dB is not in the sweep grid", spec.PPC, spec.SCCBytes)
	}
	return checkPoint(PointConfig(a.w, spec.PPC, spec.SCCBytes, a.axes), pt)
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

// Put merges one partial result into its slot. Everything Check rejects
// is rejected here too, plus duplicates: a slot accepts exactly one
// result, so replayed or double-delivered partials fail loudly.
func (a *Assembler) Put(spec PointSpec, pt *Point) error {
	if err := a.Check(spec, pt); err != nil {
		return err
	}
	i := a.index[spec]
	if a.points[i] != nil {
		return fmt.Errorf("explorer: duplicate partial result for %dP/%dB", spec.PPC, spec.SCCBytes)
	}
	a.points[i] = pt
	a.filled++
	return nil
}

// Grid returns the merged grid, failing if any slot is still empty — a
// partial merge is never presented as a complete sweep.
func (a *Assembler) Grid() (*Grid, error) {
	if a.filled != len(a.specs) {
		return nil, fmt.Errorf("explorer: merged grid is incomplete: %d of %d points", a.filled, len(a.specs))
	}
	return assembleGrid(a.w, a.points), nil
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
