// Experiments: the one resolved form of every request. Each POST body
// resolves once into an experiment — what a job computes and nothing
// else — and the SHA-256 of the experiment's JSON is the job's content
// key. Coalescing, the result cache, the cross-validation twin and the
// job runner all read this one value, so a field that can change a
// result cannot reach the job without also reaching the key.

package serve

import (
	"encoding/json"
	"fmt"

	"sccsim"
	"sccsim/internal/explorer"
	"sccsim/internal/trace"
)

// experiment is a resolved request. Resolution spells out everything a
// default would otherwise decide: presets become explicit problem
// sizes, an absent backend becomes exact, a point's zero fields become
// the 1P/64KB baseline, and zero sim, axes and search axes become
// absent. Equal experiments are then equal values with equal JSON.
// Parallelism, timeouts and the wait/stream mode cannot change a
// result, so they are not part of it.
type experiment struct {
	Kind     jobKind         `json:"kind"`
	Workload sccsim.Workload `json:"workload"`
	// Backend is the resolved execution backend. Searches drive both
	// backends themselves and leave it empty.
	Backend sccsim.Backend `json:"backend,omitempty"`
	Scale   ScaleSpec      `json:"scale"`
	// PPC and SCCBytes name a point job's design point.
	PPC      int                `json:"procs_per_cluster,omitempty"`
	SCCBytes int                `json:"scc_bytes,omitempty"`
	Sim      *SimSpec           `json:"sim,omitempty"`
	Axes     *sccsim.Axes       `json:"axes,omitempty"`
	Search   *sccsim.SearchSpec `json:"search,omitempty"`
}

// resolve fills in what every body shares: the workload, the backend
// (sweeps and points only) and the scale, with a scale_spec winning
// over the preset and seed.
func (e experiment) resolve(workload, backend, preset string, seed int64, spec *ScaleSpec) (experiment, error) {
	var err error
	if e.Workload, err = sccsim.ParseWorkload(workload); err != nil {
		return e, err
	}
	if e.Kind != jobSearch {
		e.Backend = sccsim.BackendExact
		if backend != "" {
			if e.Backend, err = sccsim.ParseBackend(backend); err != nil {
				return e, err
			}
		}
	}
	if spec != nil {
		e.Scale = *spec
		return e, nil
	}
	var s sccsim.Scale
	switch preset {
	case "", "paper":
		s = sccsim.PaperScale()
	case "quick":
		s = sccsim.QuickScale()
	default:
		return e, fmt.Errorf("unknown scale %q (want \"paper\" or \"quick\")", preset)
	}
	if seed != 0 {
		s.Seed = seed
	}
	e.Scale = ScaleSpec(s)
	return e, nil
}

// absentIfZero resolves a zero-valued optional object to absent, so
// `"sim":{}` and no sim at all are one experiment.
func absentIfZero[T comparable](p *T) *T {
	var zero T
	if p == nil || *p == zero {
		return nil
	}
	return p
}

// validate rejects what the facade would refuse at run time, so it is
// a 400 instead of a failed job: an unknown backend, simulator tuning or
// verification on the analytic backend, axes out of range or beyond
// the analytic model, a point whose machine the simulator cannot run
// (sysmodel.Config.Validate), or a malformed search.
func (e experiment) validate() error {
	if e.Search != nil {
		return e.Search.Validate()
	}
	if err := e.spec(0).Validate(); err != nil {
		return err
	}
	if e.Kind == jobPoint {
		var axes sccsim.Axes
		if e.Axes != nil {
			axes = *e.Axes
		}
		return explorer.PointConfig(e.Workload, e.PPC, e.SCCBytes, axes).Validate()
	}
	return nil
}

// key is the experiment's content key: the SHA-256 of its JSON, the
// digest the trace disk cache also uses (trace.KeyDigest).
func (e experiment) key() string {
	b, err := json.Marshal(e)
	if err != nil {
		// Plain data whose floats came from JSON always marshals.
		panic("serve: experiment does not marshal: " + err.Error())
	}
	return trace.KeyDigest(string(b))
}

// twinKey is the content key of the same sweep on the other backend —
// the pair the live cross-validation gauges compare — or "" when that
// twin would not validate (simulator tuning, verification, or axes the
// analytic model cannot run), since no request could produce it.
func (e experiment) twinKey() string {
	if e.Kind != jobSweep {
		return ""
	}
	twin := e
	twin.Backend = sccsim.BackendAnalytic
	if e.Backend == sccsim.BackendAnalytic {
		twin.Backend = sccsim.BackendExact
	}
	if twin.validate() != nil {
		return ""
	}
	return twin.key()
}

// spec converts the experiment to the facade's declarative Spec. It
// sets no TraceCacheDir: a job uses the server's own trace store, or
// none when the server has no usable one.
func (e experiment) spec(parallelism int) sccsim.Spec {
	scale := sccsim.Scale(e.Scale)
	s := sccsim.Spec{
		Scale: &scale, ProcsPerCluster: e.PPC, SCCBytes: e.SCCBytes,
		Axes: e.Axes, Parallelism: parallelism, Backend: string(e.Backend),
	}
	if e.Sim != nil {
		o := e.Sim.toOptions()
		s.Sim, s.Verify = &o, e.Sim.Verify
	}
	return s
}
