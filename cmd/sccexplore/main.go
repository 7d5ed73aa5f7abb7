// Command sccexplore regenerates the tables and figures of "Exploring
// the Design Space for a Shared-Cache Multiprocessor" (Nayfeh &
// Olukotun, ISCA 1994).
//
// Usage:
//
//	sccexplore -exp all                 # everything (paper scale; slow)
//	sccexplore -exp table3 -scale quick # one experiment, reduced scale
//	sccexplore -exp fig2 -parallel 8    # sweep worker-pool size (same output)
//	sccexplore -list                    # list experiment ids
//
// Sweeps run on the concurrent design-space engine and render a live
// progress meter on stderr (suppress with -quiet). Results go to stdout;
// every diagnostic (progress, timing footer, errors) goes to stderr, so
// stdout can be piped or redirected cleanly — in particular, -csv output
// is exactly the CSV document. Output is identical for every -parallel
// value; Ctrl-C cancels cleanly.
//
// Observability:
//
//	sccexplore -csv barnes-hut -manifest run.json  # versioned JSON run manifest
//	sccexplore -csv barnes-hut -trace run.trace    # Chrome trace (Perfetto)
//	sccexplore -exp all -debug-addr :6060          # live pprof + expvar metrics
//
// The metrics registry exists only when -debug-addr or -manifest asks
// for one; otherwise every instrumentation site stays disabled.
//
// Backends:
//
//	sccexplore -csv mp3d -backend analytic   # reuse-distance model, not the simulator
//	sccexplore -crossval mp3d -scale quick   # analytic vs exact on the full grid
//
// -backend analytic answers the whole sweep from one reuse-distance
// profile pass (orders of magnitude faster; miss ratios are model
// estimates). -crossval runs both backends over a workload's full grid,
// prints the per-point comparison, and exits 1 if the analytic error
// exceeds the library's published bounds (sccsim.DefaultCrossBounds).
//
// Search:
//
//	sccexplore -search mp3d -scale quick           # adaptive frontier search
//	sccexplore -search mp3d -space 4K:512K:4K      # 10^4+-point size range
//	sccexplore -search mp3d -strategy random -budget 64
//	sccexplore -pareto mp3d -scale quick           # frontier from a plain sweep
//
// -search runs the adaptive pipeline (static constraint pruning,
// analytic triage, exact confirmation by successive halving) and prints
// the exact-confirmed Pareto frontier with a live stage meter on
// stderr; the per-stage accounting footer is a diagnostic. -pareto
// extracts the same frontier from an exhaustive sweep — the reference
// -search is measured against. -budget, -margin, -strategy and -space
// tune the search; -manifest works with -search too.
//
// Architecture axes:
//
//	sccexplore -csv mp3d -assoc 4                      # 4-way set-associative SCCs
//	sccexplore -csv mp3d -assoc 4 -repl random         # ... with random replacement
//	sccexplore -csv barnes-hut -line-bytes 32          # 32-byte cache lines
//	sccexplore -csv cholesky -hierarchy private        # per-processor private caches
//	sccexplore -csv cholesky -hierarchy hybrid -l1-bytes 8192  # private L1s over a shared SCC
//
// The axis flags overlay every configuration an experiment builds;
// leaving them at their defaults reproduces the paper's grids bit for
// bit. The analytic backend models -assoc only and rejects the other
// non-default axes with an error naming the exact backend. See
// docs/DESIGN-SPACE.md for the full axis reference.
//
// Trace caching: -trace-cache DIR persists every generated workload
// trace under DIR; later runs (any experiment, any process) load the
// traces instead of regenerating them.
//
// Experiments: fig2 table3 table4 fig3 fig4 fig5 fig6 table5 table6
// table7 area invariance all.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"sccsim"
	"sccsim/internal/trace"
)

// stdout receives experiment results only; stderr receives every
// diagnostic. Tests swap them to assert the separation.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

var experiments = []struct {
	id, desc string
}{
	{"fig2", "Barnes-Hut normalized execution time vs SCC size"},
	{"table3", "Barnes-Hut speedups relative to one processor per cluster"},
	{"table4", "Barnes-Hut read miss rates (prefetching vs interference)"},
	{"fig3", "MP3D normalized execution time vs SCC size"},
	{"fig4", "Cholesky normalized execution time vs SCC size"},
	{"fig5", "Multiprogramming normalized execution time vs SCC size"},
	{"fig6", "Multiprogramming self-relative speedups"},
	{"table5", "Relative uniprocessor execution time vs load latency"},
	{"table6", "Single-chip comparison: 1P/64KB vs 2P/32KB"},
	{"table7", "MCM comparison: 4P/64KB (16P) vs 8P/128KB (32P)"},
	{"area", "Chip implementations and areas (Figures 8-11)"},
	{"invariance", "Invalidations vs processors per cluster (Sec 3.1.2 claim)"},
	{"frontier", "Cost/performance frontier over the whole design space (extension)"},
}

func main() {
	os.Exit(cli(os.Args[1:]))
}

// cli is the whole command behind main, parameterized for tests: it
// parses args, runs, and returns the process exit code.
func cli(args []string) int {
	fs := flag.NewFlagSet("sccexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (see -list)")
	scaleName := fs.String("scale", "paper", `problem scale: "paper" or "quick"`)
	seed := fs.Int64("seed", 1, "workload generator seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	csvWorkload := fs.String("csv", "", "dump a workload's full design-space sweep as CSV and exit (barnes-hut|mp3d|cholesky|multiprog)")
	searchWorkload := fs.String("search", "", "run the adaptive design-space search on this workload and print the exact-confirmed Pareto frontier (barnes-hut|mp3d|cholesky|multiprog)")
	paretoWorkload := fs.String("pareto", "", "sweep this workload exhaustively and print its cycles-vs-area Pareto frontier")
	strategy := fs.String("strategy", "auto", `-search strategy: "auto", "exhaustive", "adaptive" or "random"`)
	budget := fs.Int("budget", 0, "-search exact-simulation budget (0 = confirm every plausible candidate)")
	margin := fs.Float64("margin", 0, "-search analytic triage margin as a relative error (0 = the workload's calibrated default)")
	space := fs.String("space", "", `-search SCC size range as MIN:MAX:STEP with K/M suffixes (e.g. "4K:512K:4K"; empty = the paper's sizes)`)
	backendName := fs.String("backend", "exact", `execution backend: "exact" (cycle simulator) or "analytic" (reuse-distance model)`)
	crossWorkload := fs.String("crossval", "", "cross-validate the analytic backend against the exact simulator on this workload's full grid and exit (exit 1 on accuracy-bound violation)")
	lineBytes := fs.Int("line-bytes", 0, "cache line size in bytes, a power of two in 4..1024 (0 = the paper's 16)")
	assoc := fs.Int("assoc", 0, "SCC associativity (0 = the paper's direct-mapped caches)")
	repl := fs.String("repl", "", `replacement policy for set-associative caches: "lru" or "random" ("" = lru)`)
	hierarchy := fs.String("hierarchy", "", `cache organization: "shared" (the paper's SCCs), "private" (per-processor caches with bus coherence) or "hybrid" (private L1s backed by shared SCCs); "" = shared`)
	l1Bytes := fs.Int("l1-bytes", 0, "hybrid hierarchy's per-processor L1 size in bytes (0 = the default; requires -hierarchy hybrid)")
	parallel := fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS); results are identical for any value")
	quiet := fs.Bool("quiet", false, "suppress the live progress meter on stderr")
	verifyRuns := fs.Bool("verify", false, "run every simulation with the coherence invariant checker attached (slower; a violation fails the experiment)")
	manifestPath := fs.String("manifest", "", "write a versioned JSON run manifest of the -csv sweep to this file")
	traceCacheDir := fs.String("trace-cache", "", "persist generated workload traces in this directory; repeated runs load them instead of regenerating")
	tracePath := fs.String("trace", "", "write a Chrome trace_event timeline of the -csv sweep to this file (open in Perfetto)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-11s %s\n", e.id, e.desc)
		}
		return 0
	}

	var scale sccsim.Scale
	switch *scaleName {
	case "paper":
		scale = sccsim.PaperScale()
	case "quick":
		scale = sccsim.QuickScale()
	default:
		fmt.Fprintf(stderr, "sccexplore: unknown scale %q\n", *scaleName)
		return 2
	}
	scale.Seed = *seed

	backend, err := sccsim.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(stderr, "sccexplore: %v\n", err)
		return 2
	}

	axes := sccsim.Axes{
		LineBytes: *lineBytes, Assoc: *assoc, Repl: *repl,
		Hierarchy: *hierarchy, L1Bytes: *l1Bytes,
	}
	if !axes.IsZero() {
		// Bad axis values are usage errors; catch them before any trace
		// generation rather than mid-sweep.
		if err := axes.Validate(); err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 2
		}
	}

	if *manifestPath != "" && *csvWorkload == "" && *searchWorkload == "" {
		fmt.Fprintln(stderr, "sccexplore: -manifest requires -csv or -search (it describes one run)")
		return 2
	}
	if *tracePath != "" && *csvWorkload == "" {
		fmt.Fprintln(stderr, "sccexplore: -trace requires -csv (it describes one sweep)")
		return 2
	}

	// The trace cache opens once, here, so an unusable directory fails
	// before any experiment runs.
	var traceStore sccsim.TraceStore
	if *traceCacheDir != "" {
		dc, err := trace.NewDiskCache(*traceCacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 1
		}
		traceStore = dc
	}

	// The metrics registry feeds two consumers: the expvar endpoint
	// (live, while running) and the manifest's metrics snapshot (final).
	var metrics *sccsim.Metrics
	if *debugAddr != "" || *manifestPath != "" {
		metrics = sccsim.NewMetrics()
	}
	if *debugAddr != "" {
		// Guard against re-registration across repeated cli runs in
		// tests — expvar.Publish panics on duplicate names.
		if expvar.Get("sccsim") == nil {
			expvar.Publish("sccsim", expvar.Func(func() any { return metrics.Snapshot() }))
		}
		go func() {
			// DefaultServeMux carries both the pprof handlers (via the
			// package import) and expvar's /debug/vars.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(stderr, "sccexplore: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "sccexplore: pprof and expvar on http://%s/debug/\n", *debugAddr)
	}

	// Ctrl-C cancels the in-flight sweep points and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := func(label string) []sccsim.Opt {
		o := []sccsim.Opt{sccsim.WithScale(scale), sccsim.WithParallelism(*parallel), sccsim.WithBackend(backend)}
		if !axes.IsZero() {
			o = append(o, sccsim.WithAxes(axes))
		}
		if metrics != nil {
			o = append(o, sccsim.WithMetrics(metrics))
		}
		if traceStore != nil {
			o = append(o, sccsim.WithTraceStore(traceStore))
		}
		if *verifyRuns {
			o = append(o, sccsim.WithVerify())
		}
		// Search mode has its own stage meter (WithSearchProgress); the
		// per-point sweep meter would interleave with it on one line.
		if !*quiet && !strings.HasPrefix(label, "search ") {
			o = append(o, sccsim.WithProgress(progressMeter(label)))
		}
		return o
	}

	if *crossWorkload != "" {
		if err := runCrossval(ctx, *crossWorkload, opts); err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 1
		}
		return 0
	}

	if *searchWorkload != "" {
		spec := sccsim.SearchSpec{
			Strategy: sccsim.SearchStrategy(*strategy),
			Budget:   *budget,
			Margin:   *margin,
			Seed:     *seed,
		}
		if *space != "" {
			min, max, step, err := parseSpace(*space)
			if err != nil {
				fmt.Fprintf(stderr, "sccexplore: %v\n", err)
				return 2
			}
			spec.Space.SCCBytesMin, spec.Space.SCCBytesMax, spec.Space.SCCBytesStep = min, max, step
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 2
		}
		if err := runSearch(ctx, *searchWorkload, *manifestPath, spec, *quiet, opts); err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 1
		}
		return 0
	}

	if *paretoWorkload != "" {
		if err := runPareto(ctx, *paretoWorkload, opts); err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 1
		}
		return 0
	}

	if *csvWorkload != "" {
		if err := runCSV(ctx, *csvWorkload, *manifestPath, *tracePath, opts); err != nil {
			fmt.Fprintf(stderr, "sccexplore: %v\n", err)
			return 1
		}
		return 0
	}

	if err := run(ctx, *exp, opts); err != nil {
		fmt.Fprintf(stderr, "sccexplore: %v\n", err)
		return 1
	}
	return 0
}

// runCrossval runs the analytic-vs-exact comparison over one
// workload's full grid, prints the per-point report, and fails if the
// analytic backend's published accuracy bounds are exceeded.
func runCrossval(ctx context.Context, workload string, opts func(string) []sccsim.Opt) error {
	w, err := sccsim.ParseWorkload(workload)
	if err != nil {
		return err
	}
	r, err := sccsim.CrossValidate(ctx, w, opts("crossval "+workload)...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, r.String())
	if err := r.Check(sccsim.DefaultCrossBounds(w)); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sccexplore: %s within analytic accuracy bounds\n", w)
	return nil
}

// runCSV sweeps one workload and prints its grid as CSV, optionally
// writing the run manifest and Chrome trace artifacts.
func runCSV(ctx context.Context, workload, manifestPath, tracePath string, opts func(string) []sccsim.Opt) error {
	o := opts(workload)
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	if manifestPath != "" {
		f, err := open(manifestPath)
		if err != nil {
			return err
		}
		o = append(o, sccsim.WithManifest(f))
	}
	if tracePath != "" {
		f, err := open(tracePath)
		if err != nil {
			return err
		}
		o = append(o, sccsim.WithTraceExport(f))
	}
	g, err := sccsim.SweepCtx(ctx, sccsim.Workload(workload), o...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, sccsim.GridCSV(g))
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sccexplore: wrote %s\n", f.Name())
	}
	files = nil
	return nil
}

// progressMeter renders the engine's progress hook as a live one-line
// meter on stderr: points done/total, elapsed wall clock, and the
// simulation time of the point that just finished.
func progressMeter(label string) func(sccsim.Progress) {
	return func(p sccsim.Progress) {
		fmt.Fprintf(stderr, "\r%-12s %2d/%d points  elapsed %-8v  last %v (%v)        ",
			label, p.Done, p.Total,
			p.Elapsed.Round(10*time.Millisecond),
			p.PointTime.Round(time.Millisecond), p.Config)
		if p.Done == p.Total {
			fmt.Fprintln(stderr)
		}
	}
}

func run(ctx context.Context, exp string, opts func(label string) []sccsim.Opt) error {
	start := time.Now()
	// Timing footer is a diagnostic: stderr, so stdout stays pipeable.
	defer func() { fmt.Fprintf(stderr, "[%s in %v]\n", exp, time.Since(start).Round(time.Millisecond)) }()

	// Cached sweeps so "all" reuses grids across experiments.
	grids := map[sccsim.Workload]*sccsim.Grid{}
	grid := func(w sccsim.Workload) (*sccsim.Grid, error) {
		if g, ok := grids[w]; ok {
			return g, nil
		}
		g, err := sccsim.SweepCtx(ctx, w, opts("sweep "+string(w))...)
		if err == nil {
			grids[w] = g
		}
		return g, err
	}

	costEntries := func() ([]*sccsim.CostPerfEntry, error) {
		var entries []*sccsim.CostPerfEntry
		for _, w := range sccsim.AllWorkloads {
			e, err := sccsim.BuildCostPerfEntryCtx(ctx, w, opts("cost "+string(w))...)
			if err != nil {
				return nil, err
			}
			entries = append(entries, e)
		}
		return entries, nil
	}

	show := func(id string) error {
		switch id {
		case "fig2", "fig3", "fig4", "fig5":
			w := map[string]sccsim.Workload{
				"fig2": sccsim.BarnesHut, "fig3": sccsim.MP3D,
				"fig4": sccsim.Cholesky, "fig5": sccsim.Multiprog,
			}[id]
			g, err := grid(w)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sccsim.Figure(g, "Figure "+id[3:]+" — "+string(w)))
		case "table3":
			g, err := grid(sccsim.BarnesHut)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sccsim.SpeedupTable(g))
		case "table4":
			g, err := grid(sccsim.BarnesHut)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sccsim.MissRateTable(g))
		case "fig6":
			g, err := grid(sccsim.Multiprog)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sccsim.SpeedupFigure(g))
		case "table5":
			fmt.Fprintln(stdout, sccsim.RenderTable5())
		case "table6":
			entries, err := costEntries()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sccsim.RenderTable6(sccsim.CompareSingleChip(entries)))
		case "table7":
			entries, err := costEntries()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sccsim.RenderTable7(sccsim.CompareMCM(entries)))
		case "area":
			fmt.Fprintln(stdout, sccsim.RenderAreaReport())
		case "frontier":
			for _, w := range sccsim.AllWorkloads {
				g, err := grid(w)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, sccsim.RenderFrontier(w, sccsim.Frontier(g)))
			}
		case "invariance":
			for _, w := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky} {
				g, err := grid(w)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, sccsim.InvalidationTable(g))
			}
		default:
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		return nil
	}

	if exp != "all" {
		return show(exp)
	}
	for _, e := range experiments {
		fmt.Fprintf(stdout, "=== %s — %s ===\n", e.id, e.desc)
		if err := show(e.id); err != nil {
			return err
		}
	}
	return nil
}
