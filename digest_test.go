package sccsim_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"sccsim"
)

// TestResultDigests pins every kind of result the facade produces at
// QuickScale to the SHA-256 of its JSON encoding: full grids on both
// backends for all four workloads, the widened exact grids (private
// and hybrid hierarchies, 4-way LRU tags), batches of off-grid points
// and an explicit configuration on both backends, the Section 4
// cost/performance entries, adaptive searches, and exact sweeps under
// the simulator options the oracle does not model. Any change to a run
// path that moves a single byte of any result fails here. Update a
// digest only for an intended model change, and say so in the change
// description.
func TestResultDigests(t *testing.T) {
	ctx := context.Background()
	s := sccsim.WithScale(sccsim.QuickScale())
	backends := []sccsim.Backend{sccsim.BackendExact, sccsim.BackendAnalytic}
	// flat is the conventional snoopy multiprocessor of Section 2.1:
	// eight single-processor clusters on one bus.
	flat := sccsim.Config{Clusters: 8, ProcsPerCluster: 1, SCCBytes: 16 * 1024, LoadLatency: 2, Assoc: 1}
	offGrid := [][2]int{{2, 5 * 1024}, {4, 13 * 1024}, {8, 129 * 1024}}

	type run struct {
		name string
		fn   func() (any, error)
	}
	var runs []run
	for _, w := range sccsim.AllWorkloads {
		for _, b := range backends {
			runs = append(runs, run{fmt.Sprintf("sweep/%s/%s", w, b), func() (any, error) {
				return sccsim.SweepCtx(ctx, w, s, sccsim.WithBackend(b))
			}})
		}
	}
	for name, axes := range map[string]sccsim.Axes{
		"private":   {Hierarchy: sccsim.HierarchyPrivate},
		"hybrid":    {Hierarchy: sccsim.HierarchyHybrid},
		"assoc4lru": {Assoc: 4, Repl: sccsim.ReplLRU},
	} {
		runs = append(runs, run{"sweep/mp3d/exact/" + name, func() (any, error) {
			return sccsim.SweepCtx(ctx, sccsim.MP3D, s, sccsim.WithAxes(axes))
		}})
	}
	for _, b := range backends {
		runs = append(runs, run{fmt.Sprintf("points/mp3d/%s", b), func() (any, error) {
			var pts []*sccsim.Point
			for _, p := range offGrid {
				pt, err := sccsim.Do(ctx, sccsim.MP3D, s, sccsim.WithBackend(b), sccsim.WithPoint(p[0], p[1]))
				if err != nil {
					return nil, err
				}
				pts = append(pts, pt)
			}
			return pts, nil
		}})
		runs = append(runs, run{fmt.Sprintf("config/mp3d/%s", b), func() (any, error) {
			return sccsim.Do(ctx, sccsim.MP3D, s, sccsim.WithBackend(b), sccsim.WithConfig(flat))
		}})
	}
	// Cost/performance entries and searches read the cycles the sweeps
	// above recorded; each starts from a reset so it pins simulated
	// numbers.
	for _, w := range sccsim.AllWorkloads {
		runs = append(runs, run{fmt.Sprintf("costperf/%s", w), func() (any, error) {
			sccsim.ResetTraceCache()
			return sccsim.BuildCostPerfEntryCtx(ctx, w, s)
		}})
	}
	for _, w := range []sccsim.Workload{sccsim.MP3D, sccsim.Multiprog} {
		runs = append(runs, run{fmt.Sprintf("search/%s", w), func() (any, error) {
			sccsim.ResetTraceCache()
			return sccsim.SearchCtx(ctx, w, sccsim.SearchSpec{Seed: 1}, s)
		}})
	}
	// The simulator options the oracle does not model (internal/verify
	// covers the paper's baseline only): the victim buffer on each path
	// it takes, bus occupancy, banked memory and statistics warmup.
	victim := sccsim.Options{VictimEntries: 4}
	for name, a := range map[string]struct {
		w    sccsim.Workload
		axes sccsim.Axes
		opts sccsim.Options
	}{
		"victim4/mp3d":            {sccsim.MP3D, sccsim.Axes{}, victim},
		"victim4/cholesky/assoc2": {sccsim.Cholesky, sccsim.Axes{Assoc: 2, Repl: sccsim.ReplLRU}, victim},
		"victim4/mp3d/hybrid":     {sccsim.MP3D, sccsim.Axes{Hierarchy: sccsim.HierarchyHybrid}, victim},
		"victim4/multiprog":       {sccsim.Multiprog, sccsim.Axes{}, victim},
		"busocc4/mp3d":            {sccsim.MP3D, sccsim.Axes{}, sccsim.Options{BusOccupancy: 4}},
		"membanks4/barnes-hut":    {sccsim.BarnesHut, sccsim.Axes{}, sccsim.Options{MemBanks: 4, MemBankOccupancy: 20}},
		"warmup/mp3d":             {sccsim.MP3D, sccsim.Axes{}, sccsim.Options{WarmupRefs: 20000}},
		"warmup/multiprog":        {sccsim.Multiprog, sccsim.Axes{}, sccsim.Options{WarmupRefs: 100000}},
	} {
		runs = append(runs, run{"ablation/" + name, func() (any, error) {
			return sccsim.SweepCtx(ctx, a.w, s, sccsim.WithAxes(a.axes), sccsim.WithSimOptions(a.opts))
		}})
	}

	want := map[string]string{
		"sweep/barnes-hut/exact":     "fd6a73ae0d7e8244a6369f90ef5428dcddf225514d47753093f0f27c29fe9376",
		"sweep/barnes-hut/analytic":  "13d40feaeb3849fe372613a1bc4bcc69dc43e40b1d837e74460d80d6cfcdecde",
		"sweep/mp3d/exact":           "b6c8ad94321c2ad55fea7998c3dd8323ea6f26757101a302152d2f61043563e5",
		"sweep/mp3d/analytic":        "072606dbfc2cd6608769ec95163c809aedc7177630abf1c66b63631dfb4ac1ed",
		"sweep/cholesky/exact":       "1cc800a90634394c2542bd7f985a98c6c20082a909ed2d9e3e0530933314bc23",
		"sweep/cholesky/analytic":    "d539af0161f4a555fff3ebeccd8876430d7b95003bd4e13e26c7c28f228a7dc0",
		"sweep/multiprog/exact":      "7539323f80a8a478b3d3069c881e52a5912864f6f2b8dadd1862893282c40cf6",
		"sweep/multiprog/analytic":   "9710ff0fabb19e7b42ce81ac8453a90f857b9beffd42b98bfb90ecc2cf8e4132",
		"sweep/mp3d/exact/private":   "ca8cd854488f2abe3cee84c6843b2d280f4df2311e6434a0e022d47fcfd0af92",
		"sweep/mp3d/exact/hybrid":    "533d86416ab7703ded7ef487e8228204aac9ca913389d014ea4332edf7fcfb0c",
		"sweep/mp3d/exact/assoc4lru": "75ccb8fd0e087407cf65b6f5651f4ac5c9e2bcd29e92fa9c24b91fdbd63a64dd",
		"points/mp3d/exact":          "508b84dcf1cd2f8bb25608625ecf1c5c7f9a54f148029e3b5bf72f5fa179c182",
		"config/mp3d/exact":          "c8987aa2390783b29bbf065388b594c248c115f00f1d8cb459a2435350179e50",
		"points/mp3d/analytic":       "de9825afd1a4043c920abb8afe81c78a98a795d0fa87664f3b592b9c0e9bddbb",
		"config/mp3d/analytic":       "fc0fb0254d32c2681dcd8dc4f845567b517470c27f6da69ff96ad83838b88383",
		"costperf/barnes-hut":        "75e0e97cdd86a6c905baf2f5eb7f23a6cfa2e358c6ada10690921b296909076d",
		"costperf/mp3d":              "8039e761c998a22c400928c1cb842c998c7bf8ceb0bf5da7c8ea964d6e299b26",
		"costperf/cholesky":          "c69459116c753d9593152babca004c5a71349115007f171a03d665c065c8d59f",
		"costperf/multiprog":         "592984e9925f0f8869a3dfd7ad28ddfabd59ad51632342e05f03981f6634ca09",
		"search/mp3d":                "1e576a8bdbe1a19d3c670c8622115e6ebad8cfa7c0b250b01a1aac7c2500183c",
		"search/multiprog":           "e6f12ec14ec2c84f2ba28953c92ca00b243b61a15040f7351d08c6114c1590c6",

		"ablation/victim4/mp3d":            "222da9df648a1a5656b4fe21ee29e4adf6fcebc2198e52278ce3cc395e2d5bad",
		"ablation/victim4/cholesky/assoc2": "a1cf6de69a22fe80f766aee8386732a251ae01c64d27997ac1bdc0e178aea884",
		"ablation/victim4/mp3d/hybrid":     "06db697e5f61fb356e34114531a8999648311d71cc85170ec45fe9a7b19bddd9",
		"ablation/victim4/multiprog":       "87dbafd09ea8a7de619ed03e4d57ffcd5e7d39adb7225877ad7246c47cd9c00d",
		"ablation/busocc4/mp3d":            "4d86f6df1a7d9fe93379d1964e9f18e6f6ba53047bce7b6f99abfff43e9b6fd4",
		"ablation/membanks4/barnes-hut":    "a51b1a9c051c6b5b4e392386e8730b34d01dad6db56506e58b8f563fdb165355",
		"ablation/warmup/mp3d":             "82f891048c82c28c885d9780982b1fc9546a7ccb130613482a133167919453d5",
		"ablation/warmup/multiprog":        "451db1d1f9cc7495a52346f02bb7b89faa87c9da4997e3eeb0a8e5bcc772c1fb",
	}
	for _, r := range runs {
		res, err := r.fn()
		if err != nil {
			t.Errorf("%s: %v", r.name, err)
			continue
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want[r.name] {
			t.Errorf("%s: digest %s, want %s", r.name, got, want[r.name])
		}
	}
}
