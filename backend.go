// Backend selection: every experiment entry point (Do, SweepCtx, the
// Spec bridge, the HTTP service) runs on one of two result-producing
// strategies behind the same API — the exact cycle simulator or the
// analytic reuse-distance model. The backend is part of an
// experiment's identity: it is threaded through engine reports, run
// manifests and the serve layer's content keys, so a result is never
// ambiguous about how it was produced.
package sccsim

import (
	"fmt"

	"sccsim/internal/explorer"
	"sccsim/internal/sysmodel"
)

// Backend names a result-producing strategy. See the constants for the
// trade-off; ParseBackend validates untrusted names.
type Backend = explorer.Backend

// The two backends trade fidelity for speed; both produce the same
// result shapes (grids, points, manifests), stamped with which backend
// made them.
const (
	// BackendExact runs the trace-driven cycle simulator — the ground
	// truth behind every paper table, with full contention, coherence
	// and scheduling detail. This is the default.
	BackendExact = explorer.BackendExact
	// BackendAnalytic predicts each design point from a reuse-distance
	// profile of the workload trace (internal/rdmodel): one profile
	// pass per processor count answers every cache size, making a full
	// grid orders of magnitude faster than exact simulation. Its miss
	// ratios and cycle estimates carry a measured accuracy contract —
	// see CrossValidate and DefaultCrossBounds — and its results leave
	// contention/coherence statistics (bank stalls, snoop traffic, lock
	// spins) at zero.
	BackendAnalytic = explorer.BackendAnalytic
)

// AllBackends lists every backend.
var AllBackends = explorer.AllBackends

// ParseBackend maps a backend name ("exact", "analytic") to its
// Backend, validating it against AllBackends — the boundary check for
// callers that receive backend names as strings.
func ParseBackend(name string) (Backend, error) {
	return explorer.ParseBackend(name)
}

// WithBackend selects the experiment's backend (default BackendExact).
// The analytic backend evaluates the paper's default system model only:
// it composes with the design-point, scale, parallelism, trace-cache
// and observability options, but rejects options that only the
// simulator can honor — WithSimOptions, WithVerify and WithTraceExport
// fail the experiment at start with a descriptive error.
func WithBackend(b Backend) Opt { return func(c *expCfg) { c.backend = b } }

// validate checks the resolved configuration for contradictions,
// returning the first actionable error. It runs after every option has
// been applied, so option order never changes the outcome.
func (c *expCfg) validate() error {
	switch c.backend {
	case "", BackendExact, BackendAnalytic:
	default:
		_, err := explorer.ParseBackend(string(c.backend))
		return err
	}
	if !c.axes.IsZero() {
		if err := c.axes.Validate(); err != nil {
			return err
		}
	}
	base := sysmodel.Default(1, 64*1024)
	if c.cfg != nil {
		base = *c.cfg
	}
	if c.sim.VictimEntries > 0 && c.axes.Apply(base).HierarchyKind() == sysmodel.HierarchyPrivate {
		// A victim buffer sits beside an SCC; the private hierarchy has
		// none, so the option would otherwise silently do nothing.
		return fmt.Errorf("sccsim: victim_entries (Options.VictimEntries) needs the %q or %q hierarchy; %q has no SCC to attach a victim buffer to",
			HierarchyShared, HierarchyHybrid, HierarchyPrivate)
	}
	if c.backend == BackendAnalytic {
		if c.verify {
			return fmt.Errorf("sccsim: WithVerify checks simulator coherence invariants and requires the exact backend")
		}
		if c.simSet {
			return fmt.Errorf("sccsim: WithSimOptions tunes the cycle simulator and requires the exact backend")
		}
		if c.traceW != nil {
			return fmt.Errorf("sccsim: WithTraceExport records simulator timelines and requires the exact backend")
		}
		// Reject-or-model: associativity is modeled; the remaining axes
		// are not, and fail here — the serve layer's 400 path — rather
		// than mid-run.
		if err := explorer.AnalyticSupports(c.axes.Apply(base)); err != nil {
			return err
		}
	}
	return nil
}
