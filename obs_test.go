package sccsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"testing"
	"time"

	"sccsim"
	"sccsim/internal/obs"
	"sccsim/internal/stats"
)

// manifestDoc decodes the schema-bearing parts of a run manifest.
type manifestDoc struct {
	Version  int            `json:"version"`
	Tool     string         `json:"tool"`
	Workload string         `json:"workload"`
	Host     map[string]any `json:"host"`
	Points   []struct {
		ProcsPerCluster int     `json:"procs_per_cluster"`
		SCCBytes        int     `json:"scc_bytes"`
		Cycles          uint64  `json:"cycles"`
		ReadMissRate    float64 `json:"read_miss_rate"`
		WallNanos       int64   `json:"wall_ns"`
	} `json:"points"`
	Aggregate struct {
		Points int `json:"points"`
	} `json:"aggregate"`
	Sweep struct {
		Workers          int    `json:"workers"`
		TraceCacheHits   uint64 `json:"trace_cache_hits"`
		TraceCacheMisses uint64 `json:"trace_cache_misses"`
	} `json:"sweep"`
	Metrics map[string]any `json:"metrics"`
}

// TestSweepWritesManifestAndTrace is the tentpole's end-to-end check: a
// Barnes-Hut sweep with full observability emits a valid versioned
// manifest and a valid Chrome trace whose per-track timestamps are
// monotonically non-decreasing.
func TestSweepWritesManifestAndTrace(t *testing.T) {
	sccsim.ResetTraceCache()
	var manifest, chrome bytes.Buffer
	reg := sccsim.NewMetrics()
	var rep *sccsim.SweepReport
	g, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut,
		sccsim.WithScale(sccsim.QuickScale()),
		sccsim.WithParallelism(4),
		sccsim.WithMetrics(reg),
		sccsim.WithManifest(&manifest),
		sccsim.WithTraceExport(&chrome),
		sccsim.WithSweepReport(func(r sccsim.SweepReport) { rep = &r }),
	)
	if err != nil {
		t.Fatal(err)
	}
	total := len(g.Sizes()) * len(g.Procs())
	if rep == nil || rep.Points != total {
		t.Fatalf("SweepReport missing or wrong: %+v", rep)
	}

	// --- Manifest ---
	var doc manifestDoc
	if err := json.Unmarshal(manifest.Bytes(), &doc); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if doc.Version != 1 || doc.Tool != "sccsim" || doc.Workload != "barnes-hut" {
		t.Errorf("manifest header = version %d tool %q workload %q", doc.Version, doc.Tool, doc.Workload)
	}
	if doc.Aggregate.Points != total || len(doc.Points) != total {
		t.Errorf("manifest has %d/%d points, want %d", len(doc.Points), doc.Aggregate.Points, total)
	}
	for i, p := range doc.Points {
		if p.Cycles == 0 || p.WallNanos <= 0 {
			t.Errorf("point %d: cycles=%d wall_ns=%d", i, p.Cycles, p.WallNanos)
		}
	}
	// Barnes-Hut sweeps share one trace per total processor count: the
	// distinct (clusters * ppc) products of the grid.
	procCounts := map[int]bool{}
	for _, pt := range doc.Points {
		procCounts[pt.ProcsPerCluster] = true
	}
	if doc.Sweep.TraceCacheMisses != uint64(len(procCounts)) {
		t.Errorf("trace-cache misses = %d, want %d (one generation per processor count)",
			doc.Sweep.TraceCacheMisses, len(procCounts))
	}
	if doc.Sweep.TraceCacheHits != uint64(total-len(procCounts)) {
		t.Errorf("trace-cache hits = %d, want %d", doc.Sweep.TraceCacheHits, total-len(procCounts))
	}
	if doc.Metrics == nil {
		t.Error("manifest has no metrics snapshot despite WithMetrics")
	} else if _, ok := doc.Metrics["sim.read_miss_cycles"]; !ok {
		t.Error("metrics snapshot missing sim.read_miss_cycles histogram")
	}

	// --- Chrome trace ---
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TS  uint64 `json:"ts"`
			PID int    `json:"pid"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	last := map[[2]int]uint64{}
	var timeline int
	pids := map[int]bool{}
	for _, e := range tr.TraceEvents {
		pids[e.PID] = true
		if e.Ph == "M" {
			continue
		}
		timeline++
		key := [2]int{e.PID, e.TID}
		if prev, ok := last[key]; ok && e.TS < prev {
			t.Fatalf("track (%d,%d): ts %d after %d — not monotonic", e.PID, e.TID, e.TS, prev)
		}
		last[key] = e.TS
	}
	if timeline == 0 {
		t.Error("chrome trace has no timeline events")
	}
	if len(pids) != total {
		t.Errorf("trace has %d processes, want one per design point (%d)", len(pids), total)
	}
}

// TestDoTraceExport: single-run trace export through the Do path.
func TestDoTraceExport(t *testing.T) {
	var chrome bytes.Buffer
	pt, err := sccsim.Do(context.Background(), sccsim.BarnesHut,
		sccsim.WithScale(sccsim.QuickScale()),
		sccsim.WithPoint(2, 32*1024),
		sccsim.WithTraceExport(&chrome),
	)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Result.Cycles == 0 {
		t.Fatal("empty result")
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &tr); err != nil {
		t.Fatalf("Do trace export is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("Do trace export is empty")
	}
}

// TestObservabilityOffByDefault: without the With* options, a sweep must
// not emit anything — the disabled path is the default contract.
func TestObservabilityOffByDefault(t *testing.T) {
	pt, err := sccsim.Do(context.Background(), sccsim.MP3D,
		sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Result.Cycles == 0 {
		t.Fatal("empty result")
	}
}

// obsOverheadBound is the observability contract's cost: fully enabled
// instrumentation may slow a design point by at most 5%.
const obsOverheadBound = 0.05

// BenchmarkObservabilityOverhead is the observability contract's cost
// check, a paired in-process A/B: each QuickScale Barnes-Hut grid
// point runs twice, once with observability off and once fully on (a
// metrics registry and a JSON logger), and the side that runs first
// alternates from pair to pair. Both sides of a pair must give the same
// result, and the median on/off wall-time ratio, pooled over every pair
// of every round, must stay within obsOverheadBound. The traces are
// warmed first, so both sides time simulation only. Per-round medians
// spread by a few percent on a loaded 2-vCPU host, so the verdict pools
// obsOverheadRounds rounds of 32 pairs. `make obs-overhead` runs it
// with -benchtime 1x.
func BenchmarkObservabilityOverhead(b *testing.B) {
	const obsOverheadRounds = 8
	ctx := context.Background()
	q := sccsim.WithScale(sccsim.QuickScale())
	if _, err := sccsim.SweepCtx(ctx, sccsim.BarnesHut, q); err != nil {
		b.Fatal(err)
	}
	off := []sccsim.Opt{q, sccsim.WithParallelism(1)}
	on := []sccsim.Opt{q, sccsim.WithParallelism(1),
		sccsim.WithMetrics(sccsim.NewMetrics()),
		sccsim.WithLogger(obs.NewJSONLogger(io.Discard, slog.LevelInfo))}
	run := func(opts []sccsim.Opt, ppc, scc int) (*sccsim.Point, time.Duration) {
		start := time.Now()
		pt, err := sccsim.Do(ctx, sccsim.BarnesHut, append(opts, sccsim.WithPoint(ppc, scc))...)
		if err != nil {
			b.Fatal(err)
		}
		return pt, time.Since(start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for r := 0; r < obsOverheadRounds; r++ {
			for _, ppc := range sccsim.ProcsPerClusterSweep {
				for _, scc := range sccsim.SCCSizes {
					var offPt, onPt *sccsim.Point
					var offDur, onDur time.Duration
					// Neighbouring pairs swap which side runs first, and
					// so does each point from one round to the next.
					if (len(ratios)+r)%2 == 0 {
						offPt, offDur = run(off, ppc, scc)
						onPt, onDur = run(on, ppc, scc)
					} else {
						onPt, onDur = run(on, ppc, scc)
						offPt, offDur = run(off, ppc, scc)
					}
					if offPt.Result.Cycles != onPt.Result.Cycles || offPt.Result.Refs != onPt.Result.Refs {
						b.Fatalf("%dP/%dKB: observability changed the result: %d cycles, %d refs off; %d, %d on",
							ppc, scc/1024, offPt.Result.Cycles, offPt.Result.Refs, onPt.Result.Cycles, onPt.Result.Refs)
					}
					ratios = append(ratios, float64(onDur)/float64(offDur))
				}
			}
		}
		med := stats.Median(ratios)
		b.ReportMetric(med, "on/off")
		b.Logf("median on/off ratio %.3f over %d pairs (bound %.2f)", med, len(ratios), 1+obsOverheadBound)
		if med > 1+obsOverheadBound {
			b.Fatalf("observability costs %.1f%% per point, above the %.0f%% bound", (med-1)*100, obsOverheadBound*100)
		}
	}
}
