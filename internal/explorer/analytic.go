// The analytic backend: the same run path as the exact one (engine.go),
// but each point is *predicted* from a reuse-distance profile
// (internal/rdmodel) instead of simulated cycle by cycle. A profile is
// built once per system shape — (workload, processors, clusters) for
// parallel workloads, (trace, scheduling slots) for multiprogramming —
// and answers every SCC size on the grid in microseconds, which is what
// makes the analytic grid orders of magnitude faster than the exact
// one. Profiles are content-keyed and cached alongside the traces they
// were measured from, and the points flow through the same RunConfigs
// path, so trace stores, metrics, Progress events, SweepReports and
// manifests work identically for both backends.

package explorer

import (
	"fmt"
	"math"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/rdmodel"
	"sccsim/internal/scc"
	"sccsim/internal/sim"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
	"sccsim/internal/workload/multiprog"
)

// Backend names a result-producing strategy: the exact cycle simulator
// or the analytic reuse-distance model. The zero value is not valid at
// API boundaries; parse user input with ParseBackend.
type Backend string

const (
	// BackendExact is the trace-driven cycle simulator (internal/sim) —
	// the ground truth every paper table is generated from.
	BackendExact Backend = "exact"
	// BackendAnalytic is the reuse-distance model (internal/rdmodel):
	// predicted miss ratios and estimated cycles, orders of magnitude
	// faster, accurate within the bounds asserted by the verify
	// cross-validator.
	BackendAnalytic Backend = "analytic"
)

// AllBackends lists every backend.
var AllBackends = []Backend{BackendExact, BackendAnalytic}

// ParseBackend maps a backend name to its Backend, validating it
// against AllBackends — the boundary check for callers that receive
// backend names as strings.
func ParseBackend(name string) (Backend, error) {
	for _, b := range AllBackends {
		if name == string(b) {
			return b, nil
		}
	}
	return "", fmt.Errorf("unknown backend %q (want one of %v)", name, AllBackends)
}

// ---- Profile memo ----
//
// A reuse-distance profile is immutable once built and depends only on
// the trace content and the system shape, so — exactly like traces —
// one profile backs every design point and every concurrent worker that
// shares its key. Building a profile is the analytic backend's only
// expensive step; the memo makes a full grid pay for it once per
// distinct processor count.

// traceShape keys a profile: its trace's store key and the system
// shape it was measured for.
type traceShape struct {
	trace           string
	procs, clusters int
}

var profiles = memo[traceShape, *rdmodel.Profile]{budget: profileCacheBudget, minCharge: memoMinCharge, size: (*rdmodel.Profile).HeapBytes}

// analyticResult shapes a prediction as a *sim.Result so grids, tables,
// manifests and the serve layer handle both backends uniformly. Only
// the fields the model predicts are populated: Cycles/PhaseCycles (the
// issue+miss-stall estimate), Refs, per-cluster cache statistics
// (expected counts, rounded), and per-processor read-stall estimates.
// Contention, coherence and scheduling statistics the model does not
// cover (bank stalls, snoop traffic, lock spins, switches) are zero —
// present, so consumers need no nil checks, but not claims.
func analyticResult(cfg sysmodel.Config, prof *rdmodel.Profile, pred *rdmodel.Prediction) *sim.Result {
	procs := cfg.Procs()
	res := &sim.Result{
		Config:      cfg,
		Cycles:      pred.EstCycles,
		Refs:        prof.Refs,
		ProcFinish:  make([]uint64, procs),
		ReadStall:   make([]uint64, procs),
		WriteStall:  make([]uint64, procs),
		BankStall:   make([]uint64, procs),
		BarrierWait: make([]uint64, procs),
		LockStall:   make([]uint64, procs),
		PhaseCycles: append([]uint64(nil), pred.EstPhaseCycles...),
		SCC:         make([]*cache.Stats, cfg.Clusters),
		SCCBank:     make([]*scc.Stats, cfg.Clusters),
		Snoop:       &snoop.Stats{},
	}
	ppc := procs / cfg.Clusters
	for p := 0; p < procs; p++ {
		res.ProcFinish[p] = pred.EstCycles
	}
	// Per-processor read-stall estimate: the processor's share of its
	// cluster's predicted misses, at full memory latency each.
	for i := range prof.ReadRefs {
		for p := 0; p < len(prof.ReadRefs[i]) && p < procs; p++ {
			rate := pred.Cluster[p/ppc].ReadMissRate()
			res.ReadStall[p] += uint64(math.Round(
				rate * float64(prof.ReadRefs[i][p]) * float64(sysmodel.MemLatency)))
		}
	}
	for cl := 0; cl < cfg.Clusters; cl++ {
		cp := pred.Cluster[cl]
		cs := &cache.Stats{}
		cs.Accesses[mem.Read] = uint64(math.Round(cp.Reads))
		cs.Accesses[mem.Write] = uint64(math.Round(cp.Writes))
		cs.Misses[mem.Read] = uint64(math.Round(cp.ReadMisses))
		cs.Misses[mem.Write] = uint64(math.Round(cp.WriteMisses))
		res.SCC[cl] = cs
		res.SCCBank[cl] = &scc.Stats{}
	}
	return res
}

// AnalyticSupports reports whether the analytic backend can model a
// configuration's architecture axes, with an actionable error when it
// cannot. The reuse-distance profile is measured at the paper's 16-byte
// line granularity and assumes LRU within a set over a shared SCC, so
// non-default line sizes, random replacement and the private/hybrid
// hierarchies are rejected (use the exact backend for those);
// associativity is modeled (see rdmodel.Predict's binomial set-assoc
// model) and passes through.
func AnalyticSupports(cfg sysmodel.Config) error {
	if lb := cfg.Line(); lb != sysmodel.LineSize {
		return fmt.Errorf("explorer: analytic backend models %d-byte lines only (got line_bytes=%d); use the exact backend",
			sysmodel.LineSize, lb)
	}
	if r := cfg.ReplPolicy(); r != sysmodel.ReplLRU {
		return fmt.Errorf("explorer: analytic backend models lru replacement only (got repl=%q); use the exact backend", r)
	}
	if h := cfg.HierarchyKind(); h != sysmodel.HierarchyShared {
		return fmt.Errorf("explorer: analytic backend models the shared hierarchy only (got hierarchy=%q); use the exact backend", h)
	}
	return nil
}

// profileFor resolves the shared reuse-distance profile for a
// configuration's system shape: (workload, processors, clusters) for a
// parallel workload, (trace, scheduling slots) for multiprogramming.
// The trace comes through the same memo and store as the exact
// backend's, and tc records how it resolved.
func profileFor(w Workload, cfg sysmodel.Config, s Scale, tc *traceCounters, dc trace.Store) (*rdmodel.Profile, error) {
	prog, key, err := traceFor(w, cfg.Procs(), s, tc, dc)
	if err != nil {
		return nil, err
	}
	prof, evicted, err := profiles.get(traceShape{key, cfg.Procs(), cfg.Clusters}, func() (*rdmodel.Profile, error) {
		if w == Multiprog {
			streams := make([][]mem.Ref, len(prog.Phases))
			for i, ph := range prog.Phases {
				streams[i] = ph.Streams[0]
			}
			return rdmodel.BuildScheduledProfile("multiprog", streams, cfg.Procs(),
				multiprog.Quantum(multiprogRefs(s)), rdmodel.DefaultCap())
		}
		comp, err := trace.Compile(prog)
		if err != nil {
			return nil, err
		}
		return rdmodel.BuildProfile(comp, cfg.Clusters, rdmodel.DefaultCap())
	})
	tc.noteCache("profile", profiles.heldBytes(), evicted)
	return prof, err
}

// analyticPoint predicts one configuration from its shared profile.
func analyticPoint(w Workload, cfg sysmodel.Config, s Scale, tc *traceCounters, dc trace.Store) (*Point, error) {
	prof, err := profileFor(w, cfg, s, tc, dc)
	if err != nil {
		return nil, err
	}
	pred, err := prof.Predict(cfg.SCCBytes, cfg.Assoc)
	if err != nil {
		return nil, fmt.Errorf("explorer: %s at %v: %w", w, cfg, err)
	}
	return &Point{Config: cfg, Result: analyticResult(cfg, prof, pred)}, nil
}

// CompareBackends pairs workload w's exact and analytic grids point by
// point into the cross-validation report, and publishes its error
// summary as the crossval.<workload>.* float gauges on reg (nil for
// none) — the analytic backend's accuracy contract as a scrapeable
// metric. Grids of different shapes are an error.
func CompareBackends(w Workload, exact, analytic *Grid, reg *obs.Registry) (*verify.CrossReport, error) {
	if len(exact.Points) != len(analytic.Points) {
		return nil, fmt.Errorf("explorer: cross-validation of %s: exact grid has %d rows, analytic %d",
			w, len(exact.Points), len(analytic.Points))
	}
	var pts []verify.CrossPoint
	for si, row := range exact.Points {
		if len(row) != len(analytic.Points[si]) {
			return nil, fmt.Errorf("explorer: cross-validation of %s: row %d has %d exact and %d analytic points",
				w, si, len(row), len(analytic.Points[si]))
		}
		for pi, ep := range row {
			ap := analytic.Points[si][pi]
			pts = append(pts, verify.CrossPoint{
				Clusters:        ep.Config.Clusters,
				ProcsPerCluster: ep.Config.ProcsPerCluster,
				SCCBytes:        ep.Config.SCCBytes,

				ExactMissRate:    ep.Result.ReadMissRate(),
				AnalyticMissRate: ap.Result.ReadMissRate(),
				ExactCycles:      ep.Result.Cycles,
				AnalyticCycles:   ap.Result.Cycles,
			})
		}
	}
	rep := verify.NewCrossReport(string(w), pts)
	name := "crossval." + string(w)
	reg.FGauge(name + ".max_abs_err").Set(rep.MaxAbsErr)
	reg.FGauge(name + ".mean_abs_err").Set(rep.MeanAbsErr)
	reg.FGauge(name + ".max_rel_err").Set(rep.MaxRelErr)
	reg.FGauge(name + ".max_cycle_rel_err").Set(rep.MaxCycleRelErr)
	return rep, nil
}
