package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from the root or from its own directory.
func readSpec() (*benchmarkSpec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// comparison is one (metric, workload) pair's verdict.
type comparison struct {
	aMed, aQ1, aQ3 float64
	bMed, bQ1, bQ3 float64
	change         float64 // (B - A) / A median, signed
	wins           float64 // share of pairs B wins, ties counting for neither
	pairs          int
	verdict        string
}

// compareValues judges the change's runs b against the parent's runs a,
// paired index by index. B improved when it
// wins at least nine tenths of the pairs and the medians differ by more
// than the distance between A's quartiles. When A's own spread is wider
// than the bound the pair is unresolved, unless every run of B reads
// better than every run of A. Otherwise B regressed when its median is
// worse than A's by more than the bound.
func compareValues(a, b []float64, better string, bound float64) comparison {
	c := comparison{}
	c.aQ1, c.aMed, c.aQ3 = quartiles(a)
	c.bQ1, c.bMed, c.bQ3 = quartiles(b)
	if len(a) == 0 || len(b) == 0 {
		c.verdict = "unresolved"
		return c
	}
	sign := 1.0 // positive when B is better
	if better == "lower" {
		sign = -1
	}
	if c.aMed != 0 {
		c.change = (c.bMed - c.aMed) / c.aMed
	}
	c.pairs = min(len(a), len(b))
	won := 0
	for i := 0; i < c.pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			won++
		}
	}
	c.wins = float64(won) / float64(c.pairs)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	gain := sign * (c.bMed - c.aMed)
	worse := -sign * c.change
	switch {
	case c.wins >= 0.9 && gain > c.aQ3-c.aQ1:
		c.verdict = "improved"
	case spread(a) > bound && !allBetter:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "no change"
	}
	return c
}

// compareFiles compares two -out files metric by metric and workload by
// workload: end-to-end metrics of the untraced runs against their
// BENCHMARK.json bounds, per-layer metrics of the traced runs with no
// verdict. Runs pair by seed where both files have it. It reports
// whether any pair regressed.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	spec, err := readSpec()
	if err != nil {
		return false, err
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs)\n", pathA, len(ra), pathB, len(rb))
	fmt.Fprintf(w, "%-16s %-32s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "wins", "verdict")
	regressed := false
	for _, wl := range spec.Workloads {
		for _, group := range []struct {
			traced  bool
			metrics []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			for _, m := range group.metrics {
				a, b := pairedValues(ra, rb, wl.Name, group.traced, m.Name)
				if len(a) == 0 && len(b) == 0 {
					continue
				}
				c := compareValues(a, b, m.Better, m.Bound)
				if group.traced {
					c.verdict = "-"
				}
				if c.verdict == "regressed" {
					regressed = true
				}
				fmt.Fprintf(w, "%-16s %-32s %-30s %-30s %+7.1f%% %6.2f  %s\n", wl.Name, m.Name,
					fmt.Sprintf("%.4g [%.4g, %.4g] %s", c.aMed, c.aQ1, c.aQ3, m.Unit),
					fmt.Sprintf("%.4g [%.4g, %.4g] %s", c.bMed, c.bQ1, c.bQ3, m.Unit),
					100*c.change, c.wins, c.verdict)
			}
		}
	}
	return regressed, nil
}

// pairedValues extracts one metric of one workload from both files,
// ordered so that index i of each comes from the same seed where the
// files share seeds, in file order otherwise.
func pairedValues(ra, rb []record, workload string, traced bool, metric string) (a, b []float64) {
	collect := func(rs []record) map[int64][]float64 {
		out := map[int64][]float64{}
		for _, r := range rs {
			p := r.Provenance
			if p.Workload != workload || p.Trace != traced {
				continue
			}
			if m, ok := r.Result.Metrics[metric]; ok {
				out[p.Seed] = append(out[p.Seed], m.Value)
			}
		}
		return out
	}
	ma, mb := collect(ra), collect(rb)
	var restA, restB []float64
	for _, s := range sortedSeeds(ma) {
		xa, xb := ma[s], mb[s]
		n := min(len(xa), len(xb))
		a, b = append(a, xa[:n]...), append(b, xb[:n]...)
		restA = append(restA, xa[n:]...)
	}
	for _, s := range sortedSeeds(mb) {
		xb := mb[s]
		restB = append(restB, xb[min(len(ma[s]), len(xb)):]...)
	}
	return append(a, restA...), append(b, restB...)
}

func sortedSeeds(m map[int64][]float64) []int64 {
	seeds := make([]int64, 0, len(m))
	for s := range m {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}
