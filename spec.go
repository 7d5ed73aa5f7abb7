// Spec: the declarative counterpart of the functional options. Servers
// and config-file loaders receive experiment configuration as data (a
// decoded JSON body, a parsed file), not as a composed []Opt; Spec is
// the plain struct they populate and convert with Opts — one place that
// maps data to options, so the HTTP service and any future batch runner
// cannot drift from the facade's defaults.
package sccsim

import "sccsim/internal/explorer"

// Spec is a declarative experiment configuration: every knob of
// Do/SweepCtx/BuildCostPerfEntryCtx as one plain struct. The zero value
// means the same defaults as calling those functions with no options
// (paper scale, the paper's simulator model, the 1P/64KB point,
// GOMAXPROCS parallelism). Convert with Opts, appending any runtime
// options (WithProgress, WithMetrics, WithSweepReport) that cannot be
// expressed as data.
type Spec struct {
	// Scale overrides the problem sizes (nil: PaperScale).
	Scale *Scale
	// Sim overrides the simulator options (nil: the paper's model).
	Sim *Options
	// Config pins an arbitrary design point; when set it wins over
	// ProcsPerCluster/SCCBytes (the WithConfig-over-WithPoint rule).
	Config *Config
	// ProcsPerCluster and SCCBytes name a design point on the paper's
	// default system for Do; a zero field keeps its default (1 processor
	// per cluster, 64 KB).
	ProcsPerCluster int
	SCCBytes        int
	// Axes overlays architecture-axis overrides — line size,
	// associativity, replacement policy, hierarchy, hybrid L1 size — on
	// every configuration the experiment builds (nil or zero: the
	// paper's defaults, byte-identical grids). The analytic backend
	// models associativity only; other non-default axes fail Validate.
	Axes *Axes
	// Parallelism bounds the sweep engine's worker pool (0: GOMAXPROCS).
	Parallelism int
	// TraceCacheDir roots the persistent on-disk trace cache ("" : none).
	TraceCacheDir string
	// Verify attaches the coherence invariant checker to every run.
	// Exact backend only.
	Verify bool
	// Backend selects the result-producing strategy: "exact" (the cycle
	// simulator), "analytic" (the reuse-distance model), or "" for the
	// default (exact). Unknown values fail with an error listing the
	// valid names — at Validate, or at run time through Opts.
	Backend string
}

// Validate checks the spec's data-borne fields without running
// anything: an unknown Backend, or a combination the chosen backend
// cannot honor (simulator options or Verify with the analytic model),
// returns an actionable error. Servers call this before admitting a
// request so bad input fails their 4xx path, not the run.
func (s Spec) Validate() error {
	_, err := resolve(s.Opts())
	return err
}

// Opts converts the spec to the equivalent functional options.
func (s Spec) Opts() []Opt {
	var o []Opt
	if s.Scale != nil {
		o = append(o, WithScale(*s.Scale))
	}
	if s.Sim != nil {
		o = append(o, WithSimOptions(*s.Sim))
	}
	switch {
	case s.Config != nil:
		o = append(o, WithConfig(*s.Config))
	case s.ProcsPerCluster != 0 || s.SCCBytes != 0:
		ppc, scc := s.ProcsPerCluster, s.SCCBytes
		if ppc == 0 {
			ppc = 1
		}
		if scc == 0 {
			scc = 64 * 1024
		}
		o = append(o, WithPoint(ppc, scc))
	}
	if s.Axes != nil && !s.Axes.IsZero() {
		o = append(o, WithAxes(*s.Axes))
	}
	if s.Parallelism != 0 {
		o = append(o, WithParallelism(s.Parallelism))
	}
	if s.TraceCacheDir != "" {
		o = append(o, WithTraceCache(s.TraceCacheDir))
	}
	if s.Verify {
		o = append(o, WithVerify())
	}
	if s.Backend != "" {
		// The raw string converts unchecked; resolve validates it with
		// the same error ParseBackend gives, so data-driven callers see
		// the actionable message wherever the spec is first used.
		o = append(o, WithBackend(Backend(s.Backend)))
	}
	return o
}

// ParseWorkload maps a workload name ("barnes-hut", "mp3d", "cholesky",
// "multiprog") to its Workload, validating it against AllWorkloads —
// the boundary check for callers that receive workload names as
// strings.
func ParseWorkload(name string) (Workload, error) {
	return explorer.ParseWorkload(name)
}
