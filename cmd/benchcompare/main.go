// Command benchcompare diffs two sweep run manifests (see
// obs.Manifest / `make bench-json`) point by point and fails when the
// candidate regresses on performance. It is the enforcement half of the
// committed BENCH_sweep.json — `make bench-compare` regenerates the
// manifest and runs this against the committed baseline, so a PR that
// slows the simulator down fails loudly instead of silently rewriting
// the baseline.
//
// Every point's sim_cycles_per_us and wall_ns deltas are printed. The
// failure criterion is robust to single-point scheduler noise (per-point
// wall times at quick scale jitter by tens of percent on a loaded
// machine): the gate trips when the MEDIAN per-point throughput ratio
// drops more than -threshold, or when any single point drops more than
// -severe-mult times the threshold (default three), or when grid points
// are missing. Points
// whose wall time is under 2ms on either side are excluded from the
// throughput ratios entirely — at that duration the "measurement" is
// scheduler jitter (analytic-backend points run in microseconds); their
// presence and simulation results are still checked.
//
// A missing or unparsable manifest is a hard error (exit 2), with a
// hint to regenerate it — comparing against an absent baseline must
// never pass. So is a pair of manifests with no comparable throughput
// samples at all: a comparison that compared nothing is a failure, not
// a success.
//
// Simulation *results* (cycles, refs) are compared too: a mismatch is
// reported as a warning, because it usually means the workloads or the
// model changed — legitimate in a PR that says so, alarming otherwise.
//
// Points are keyed by (backend, clusters, procs, cache size): a
// manifest may carry both exact-simulator and analytic-model sweeps of
// the same grid, and each backend's throughput is tracked separately.
// Points without a backend stamp (manifests from before the backend
// API) count as "exact".
//
// -merge combines several single-sweep manifests into one baseline —
// `make bench-json` uses it to commit the exact and analytic sweeps of
// the benchmark workload as a single BENCH_sweep.json. Merging two
// manifests that contain the same (backend, point) is an error.
//
// Usage:
//
//	benchcompare [-threshold 0.10] baseline.json candidate.json
//	benchcompare -merge OUT.json in1.json in2.json...
//
// Exit status: 0 when within threshold, 1 on regression, mismatched
// grids, or nothing comparable, 2 on usage or read errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"

	"sccsim/internal/obs"
)

// stdout receives the point-by-point report; stderr receives usage and
// read errors. Variables so tests can capture both streams.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

type pointSlot struct {
	backend                 string
	clusters, ppc, sccBytes int
}

// minComparableWallNanos is the throughput noise floor: a point that
// ran for less than this on either side carries no timing signal, only
// scheduler jitter, and stays out of the ratio set.
const minComparableWallNanos = 2_000_000

// normBackend maps a point's backend stamp to its comparison key:
// manifests written before the backend API carry no stamp and were all
// produced by the exact simulator.
func normBackend(b string) string {
	if b == "" {
		return "exact"
	}
	return b
}

func readManifest(path string) (*obs.Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%s does not exist — run `make bench-json` to generate it", path)
		}
		return nil, err
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s is not a sweep manifest (%v) — regenerate it with `make bench-json`", path, err)
	}
	if len(m.Points) == 0 {
		return nil, fmt.Errorf("%s is a manifest with no points — regenerate it with `make bench-json`", path)
	}
	return &m, nil
}

func index(m *obs.Manifest) map[pointSlot]obs.PointRecord {
	idx := make(map[pointSlot]obs.PointRecord, len(m.Points))
	for _, p := range m.Points {
		idx[keyOf(m, p)] = p
	}
	return idx
}

// keyOf builds a point's comparison key, falling back to the
// manifest-level backend when the point predates per-point stamps.
func keyOf(m *obs.Manifest, p obs.PointRecord) pointSlot {
	b := p.Backend
	if b == "" {
		b = m.Backend
	}
	return pointSlot{normBackend(b), p.Clusters, p.ProcsPerCluster, p.SCCBytes}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mergeManifests concatenates the points of several sweep manifests
// into one, stamping each point with its source manifest's backend if
// it carries none of its own. The merged document keeps the first
// input's header; a (backend, point) collision across inputs is a hard
// error — it means the same sweep was merged twice, and silently
// keeping either copy would corrupt the baseline.
func mergeManifests(out string, inputs []string) int {
	if len(inputs) < 1 {
		fmt.Fprintln(stderr, "benchcompare: -merge needs at least one input manifest")
		return 2
	}
	var merged *obs.Manifest
	seen := map[pointSlot]string{}
	for _, path := range inputs {
		m, err := readManifest(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchcompare:", err)
			return 2
		}
		if merged == nil {
			header := *m
			header.Points = nil
			// The merged manifest spans backends; the per-point stamps
			// carry the distinction.
			header.Backend = ""
			merged = &header
		}
		for _, p := range m.Points {
			k := keyOf(m, p)
			if prev, dup := seen[k]; dup {
				fmt.Fprintf(stderr, "benchcompare: %s and %s both contain %s scc=%d ppc=%d clusters=%d\n",
					prev, path, k.backend, k.sccBytes, k.ppc, k.clusters)
				return 2
			}
			seen[k] = path
			p.Backend = k.backend
			merged.Points = append(merged.Points, p)
		}
	}
	// The header's aggregate described one input; recompute it over the
	// merged point set.
	agg := obs.Aggregate{}
	for _, p := range merged.Points {
		agg.Points++
		agg.Refs += p.Refs
		agg.BusFetches += p.BusFetches
		agg.Invalidations += p.Invalidations
		if agg.BestCycles == 0 || p.Cycles < agg.BestCycles {
			agg.BestCycles = p.Cycles
		}
		if p.Cycles > agg.WorstCycles {
			agg.WorstCycles = p.Cycles
		}
	}
	merged.Aggregate = agg
	raw, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 2
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "benchcompare: merged %d points from %d manifest(s) into %s\n",
		len(merged.Points), len(inputs), out)
	return 0
}

func main() {
	os.Exit(cli(os.Args[1:]))
}

// cli is the whole command behind main, parameterized for tests: it
// parses args, compares, and returns the process exit code.
func cli(args []string) int {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10,
		"tolerated median throughput regression (0.10 = 10%); any single point may lose up to -severe-mult times this")
	severeMult := fs.Float64("severe-mult", 3,
		"single-point failure multiplier: one point regressing more than severe-mult*threshold fails the gate (raise it when individual points are short enough to jitter)")
	mergeOut := fs.String("merge", "",
		"merge the input manifests' points into one manifest written to this file, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchcompare [-threshold 0.10] baseline.json candidate.json\n")
		fmt.Fprintf(stderr, "       benchcompare -merge OUT.json in1.json in2.json...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mergeOut != "" {
		return mergeManifests(*mergeOut, fs.Args())
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := readManifest(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare: baseline:", err)
		return 2
	}
	cand, err := readManifest(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare: candidate:", err)
		return 2
	}

	baseIdx, candIdx := index(base), index(cand)
	keys := make([]pointSlot, 0, len(baseIdx))
	for k := range baseIdx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.backend != b.backend {
			return a.backend < b.backend
		}
		if a.sccBytes != b.sccBytes {
			return a.sccBytes < b.sccBytes
		}
		if a.ppc != b.ppc {
			return a.ppc < b.ppc
		}
		return a.clusters < b.clusters
	})

	severeFloor := 1 - *severeMult*(*threshold)
	failures, warnings := 0, 0
	var ratios []float64
	for _, k := range keys {
		b := baseIdx[k]
		c, ok := candIdx[k]
		if !ok {
			fmt.Fprintf(stdout, "MISSING  %-8s scc=%-8d ppc=%-2d clusters=%d: point absent from candidate\n",
				k.backend, k.sccBytes, k.ppc, k.clusters)
			failures++
			continue
		}
		if c.Cycles != b.Cycles || c.Refs != b.Refs {
			fmt.Fprintf(stdout, "WARN     %-8s scc=%-8d ppc=%-2d clusters=%d: results changed "+
				"(cycles %d -> %d, refs %d -> %d) — model or workload change?\n",
				k.backend, k.sccBytes, k.ppc, k.clusters, b.Cycles, c.Cycles, b.Refs, c.Refs)
			warnings++
		}
		if b.SimCyclesPerMicro <= 0 || c.SimCyclesPerMicro <= 0 {
			continue
		}
		if b.WallNanos < minComparableWallNanos || c.WallNanos < minComparableWallNanos {
			continue
		}
		ratio := c.SimCyclesPerMicro / b.SimCyclesPerMicro
		ratios = append(ratios, ratio)
		tag := "ok      "
		switch {
		case ratio < severeFloor:
			tag = "SEVERE  "
			failures++
		case ratio < 1-*threshold:
			tag = "slower  "
		}
		if tag != "ok      " {
			fmt.Fprintf(stdout, "%s %-8s scc=%-8d ppc=%-2d clusters=%d: "+
				"%.2f -> %.2f sim_cycles/us (%+.0f%%), wall %.2fms -> %.2fms\n",
				tag, k.backend, k.sccBytes, k.ppc, k.clusters,
				b.SimCyclesPerMicro, c.SimCyclesPerMicro, (ratio-1)*100,
				float64(b.WallNanos)/1e6, float64(c.WallNanos)/1e6)
		}
	}
	for k := range candIdx {
		if _, ok := baseIdx[k]; !ok {
			fmt.Fprintf(stdout, "NOTE     %-8s scc=%-8d ppc=%-2d clusters=%d: new point not in baseline\n",
				k.backend, k.sccBytes, k.ppc, k.clusters)
		}
	}

	// No common point carried a throughput sample on both sides: this
	// "comparison" compared nothing. A zeroed or foreign baseline would
	// otherwise sail through (median of an empty set is 0, below no
	// floor), turning the gate into a no-op.
	if len(ratios) == 0 {
		fmt.Fprintf(stdout, "EMPTY    no comparable throughput samples between the manifests — "+
			"regenerate the baseline with `make bench-json`\n")
		failures++
	}

	med := median(ratios)
	if med > 0 && med < 1-*threshold {
		fmt.Fprintf(stdout, "REGRESS  median throughput ratio %.2fx is below %.2fx\n", med, 1-*threshold)
		failures++
	}
	fmt.Fprintf(stdout, "benchcompare: %d points, median throughput ratio %.2fx, "+
		"%d failure(s), %d result warning(s)\n", len(keys), med, failures, warnings)
	if failures > 0 {
		return 1
	}
	return 0
}
