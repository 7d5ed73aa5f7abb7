// Command bench is the benchmark of the whole system: five workloads
// that each stress different layers (trace generation and compile,
// replay, the analytic model, the sweep engine, the search pipeline,
// the HTTP service), end-to-end metrics from untraced runs and
// per-layer metrics from a traced one. See README.md.
//
// Run from the repository root:
//
//	bash bench/run.sh                                  # every workload, each in a child process
//	bash bench/run.sh -trace                           # and a traced run of each
//	bash bench/run.sh -runs 5 -out a.jsonl             # five seeds per workload, recorded
//	bash bench/run.sh -compare a.jsonl b.jsonl         # verdict per metric and workload
//	bash bench/run.sh --workload grid-shared --seed 3 --seconds 10 --trace 0
//
// With -workload the run happens in this process and its last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics (end-to-end untraced, per-layer traced). The exit status is
// non-zero when a run fails or a correctness check does.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything building and running the benchmark leaves
// behind: the Go build cache, the binary, scratch files, Chrome traces.
const buildDir = ".bench_build"

// runDeadline bounds one workload run, well inside the 180 s a run may
// take.
const runDeadline = 170 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func cli(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed; run i of -runs uses seed+i")
	seconds := fs.Int("seconds", 16, "seconds each run measures (BENCHMARK.json run_seconds)")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics, Chrome trace, tracing overhead (accepts -trace 0|1)")
	runs := fs.Int("runs", 1, "runs per workload, each with its own seed")
	out := fs.String("out", "", "append each run's record (provenance and result) to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare A B")
	update := fs.Bool("update-digests", false, "record this run's output digests in "+digestPath+" instead of checking them")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	if *workload != "" {
		return runOne(ctx, *workload, *seed, *seconds, *traced, *update, *out, stdout, stderr)
	}
	return runAll(ctx, *seed, *seconds, *runs, *traced, *out, stdout, stderr)
}

// normalizeTraceArg rewrites "-trace 0" and "-trace 1" (either dash
// form) as "-trace=0" and "-trace=1", so the flag works both as a bare
// switch and with an explicit value.
func normalizeTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// provenance records what produced a result.
type provenance struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"vcs_revision"`
	Modified   bool           `json:"vcs_modified"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Inputs     map[string]any `json:"inputs"`
}

func newProvenance(workload string, seed int64, seconds int, traced bool, inputs map[string]any) provenance {
	p := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Workload: workload, Seed: seed, Seconds: seconds, Trace: traced, Inputs: inputs,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// record is one run as -out stores it.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

// runOne runs one workload in this process and prints its metrics,
// notes, provenance, and the result as the last line.
func runOne(ctx context.Context, name string, seed int64, seconds int, traced, update bool, out string, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	cfg := paperConfig()
	if update {
		cfg.digests = nil // the run records the digests instead
	}
	res, r, err := execute(ctx, cfg, name, seed, time.Duration(seconds)*time.Second, traced, buildDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if r != nil {
			for _, p := range r.problems {
				fmt.Fprintln(stderr, "  ", p)
			}
		}
		return 1
	}
	mode := "untraced: end-to-end metrics"
	if traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(stdout, "%s seed %d (%s): %d set-ups, %d passes, %d operations attempted, %d failed\n",
		name, seed, mode, len(r.setups), len(r.passes), res.Attempted, res.Failed)
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if !traced {
		fmt.Fprintf(stdout, "  (op_p90_ms rests on %d operations, %d beyond it; the highest percentile with ten beyond is p%g)\n",
			len(r.ops), beyond(len(r.ops), 90), tailPercentile(len(r.ops)))
	}
	if len(r.notes) > 0 {
		fmt.Fprintln(stdout, "notes (not declared in BENCHMARK.json):")
		for _, n := range r.notes {
			fmt.Fprintf(stdout, "  %-32s %14.4f %s\n", n.name, n.value, n.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}
	if update {
		if err := r.updateDigests(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	prov := newProvenance(name, seed, seconds, traced, r.inputs)
	pj, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	if out != "" {
		if err := appendRecord(out, record{prov, *res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each run in its own child process, and
// prints a summary. With -trace each workload gets a traced run after
// its untraced ones.
func runAll(ctx context.Context, seed int64, seconds, runs int, traced bool, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	var summary []string
	for _, name := range workloadNames {
		modes := []bool{false}
		if traced {
			modes = append(modes, true)
		}
		for _, tr := range modes {
			for i := 0; i < runs; i++ {
				s := seed + int64(i)
				args := []string{"-workload", name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.Itoa(seconds), "-trace=" + strconv.FormatBool(tr)}
				if out != "" {
					args = append(args, "-out", out)
				}
				var buf bytes.Buffer
				cmd := exec.CommandContext(ctx, exe, args...)
				cmd.Stdout = io.MultiWriter(stdout, &buf)
				cmd.Stderr = stderr
				err := cmd.Run()
				line := fmt.Sprintf("%-16s seed %-3d trace=%-5t ", name, s, tr)
				res, perr := lastResult(buf.Bytes())
				switch {
				case err != nil || perr != nil:
					code = 1
					line += fmt.Sprintf("FAILED (%v)", firstErr(err, perr))
				default:
					line += formatMetrics(res.Metrics)
				}
				summary = append(summary, line)
				if ctx.Err() != nil {
					return 1
				}
			}
		}
	}
	fmt.Fprintln(stdout, "\nsummary:")
	for _, l := range summary {
		fmt.Fprintln(stdout, l)
	}
	return code
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// lastResult parses the result a workload run prints as its last line.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func formatMetrics(m map[string]metric) string {
	names := sortedKeys(m)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.4g%s", n, m[n].Value, m[n].Unit)
	}
	return strings.Join(parts, " ")
}
