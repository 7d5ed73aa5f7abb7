package explorer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

// runPoint simulates one grid point the way a worker node does.
func runPoint(ctx context.Context, w Workload, spec PointSpec, s Scale) (*Point, error) {
	pts, err := RunConfigs(ctx, w, []sysmodel.Config{PointConfig(w, spec.PPC, spec.SCCBytes, sysmodel.Axes{})},
		s, sim.Options{}, EngineOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return pts[0], nil
}

func TestGridSpecsCoverTheGrid(t *testing.T) {
	specs := GridSpecs()
	if want := len(sysmodel.SCCSizes) * len(sysmodel.ProcsPerClusterSweep); len(specs) != want {
		t.Fatalf("shard plan has %d specs, want %d", len(specs), want)
	}
	seen := make(map[PointSpec]bool, len(specs))
	for _, sp := range specs {
		if seen[sp] {
			t.Fatalf("duplicate spec %+v in shard plan", sp)
		}
		seen[sp] = true
	}
}

// TestCheckPointRejectsBadPartials: the configuration check offerRemote
// applies to every remote point before the engine accepts it.
func TestCheckPointRejectsBadPartials(t *testing.T) {
	spec := GridSpecs()[0]
	want := PointConfig(BarnesHut, spec.PPC, spec.SCCBytes, sysmodel.Axes{})
	good := &Point{Config: want, Result: &sim.Result{Cycles: 1}}

	if err := checkPoint(want, nil); err == nil {
		t.Error("nil point accepted")
	}
	if err := checkPoint(want, &Point{Config: want}); err == nil {
		t.Error("point without result accepted")
	}
	wrong := *good
	wrong.Config.SCCBytes *= 2
	if err := checkPoint(want, &wrong); err == nil {
		t.Error("config-mismatched point accepted")
	}
	mp := *good
	mp.Config.Clusters = 1 // a multiprog-shaped config in a parallel sweep
	if err := checkPoint(want, &mp); err == nil {
		t.Error("cluster-count-mismatched point accepted")
	}
	if err := checkPoint(want, good); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
}

func TestDecodePointEnvelope(t *testing.T) {
	spec := PointSpec{PPC: 1, SCCBytes: 64 * 1024}
	pt := &Point{Config: PointConfig(BarnesHut, spec.PPC, spec.SCCBytes, sysmodel.Axes{}), Result: &sim.Result{Cycles: 42, Refs: 7}}
	raw, err := json.Marshal(map[string]any{"status": "done", "point": pt})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePointEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Cycles != 42 || got.Result.Refs != 7 {
		t.Fatalf("decoded point %+v", got.Result)
	}
	for name, bad := range map[string]string{
		"malformed":  "{not json",
		"truncated":  string(raw[:len(raw)/2]),
		"failed":     `{"status":"failed","error":"boom"}`,
		"running":    `{"status":"running"}`,
		"no point":   `{"status":"done"}`,
		"null point": `{"status":"done","point":null}`,
		"no result":  `{"status":"done","point":{"Config":{}}}`,
	} {
		if _, err := DecodePointEnvelope([]byte(bad)); err == nil {
			t.Errorf("%s envelope accepted", name)
		}
	}
}

// TestSweepClusterByteIdentity is the heart of the distributed design:
// a sweep whose points are served by a "worker" (modelled as a JSON
// round trip through the service's point-envelope encoding — exactly
// what crosses the wire) merges to a grid byte-identical to the local
// engine's, and a sweep whose remote always fails falls back to local
// execution with, again, an identical grid.
func TestSweepClusterByteIdentity(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	s := QuickScale()
	ctx := context.Background()

	for _, w := range []Workload{BarnesHut, Multiprog} {
		want, err := Sweep(ctx, w, s, sim.Options{}, EngineOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		var served, progress atomic.Int64
		remote := func(ctx context.Context, rw Workload, spec PointSpec) (*Point, error) {
			pt, err := runPoint(ctx, rw, spec, s)
			if err != nil {
				return nil, err
			}
			// Model the wire: the worker's envelope, decoded as the
			// coordinator does.
			raw, err := json.Marshal(map[string]any{"status": "done", "point": pt})
			if err != nil {
				return nil, err
			}
			served.Add(1)
			return DecodePointEnvelope(raw)
		}
		eng := EngineOptions{Parallelism: 4, Remote: remote,
			Progress: func(Progress) { progress.Add(1) }}
		got, err := Sweep(ctx, w, s, sim.Options{}, eng)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: cluster grid differs from single-node grid", w)
		}
		if served.Load() != int64(len(GridSpecs())) {
			t.Fatalf("%s: %d points served remotely, want %d", w, served.Load(), len(GridSpecs()))
		}
		if progress.Load() != int64(len(GridSpecs())) {
			t.Fatalf("%s: %d progress events, want %d", w, progress.Load(), len(GridSpecs()))
		}

		// Remote always failing: every point falls back to local
		// simulation; same grid, no error.
		down := func(context.Context, Workload, PointSpec) (*Point, error) {
			return nil, errors.New("worker down")
		}
		got, err = Sweep(ctx, w, s, sim.Options{}, EngineOptions{Parallelism: 4, Remote: down})
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err = json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: fallback grid differs from single-node grid", w)
		}
	}
}

// TestSweepClusterRejectsLyingWorker: a remote that returns a valid
// point for the wrong configuration is treated as a failure — the point
// is recomputed locally and the grid stays correct.
func TestSweepClusterRejectsLyingWorker(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	s := QuickScale()
	ctx := context.Background()
	want, err := Sweep(ctx, BarnesHut, s, sim.Options{}, EngineOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	liar := func(ctx context.Context, w Workload, spec PointSpec) (*Point, error) {
		// Always serve the grid's first point, whatever was asked.
		first := GridSpecs()[0]
		return runPoint(ctx, w, first, s)
	}
	got, err := Sweep(ctx, BarnesHut, s, sim.Options{}, EngineOptions{Parallelism: 4, Remote: liar})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("lying worker corrupted the merged grid")
	}
}

// TestSweepClusterCancellationPropagates: cancelling the sweep context
// must surface as an error, not degrade into local fallback execution.
func TestSweepClusterCancellationPropagates(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	ctx, cancel := context.WithCancel(context.Background())
	remote := func(ctx context.Context, w Workload, spec PointSpec) (*Point, error) {
		cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := Sweep(ctx, BarnesHut, QuickScale(), sim.Options{},
		EngineOptions{Parallelism: 2, Remote: remote})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// FuzzShardMerge hammers the distributed sweep's trust boundary with
// hostile worker bytes. DecodePointEnvelope must reject malformed,
// truncated, wrong-status and resultless envelopes without a point and
// never panic; a decoded point then passes through offerRemote, whose
// checkPoint must accept it exactly when it carries the configuration
// it was asked for — anything else falls back to the local run.
func FuzzShardMerge(f *testing.F) {
	spec := GridSpecs()[0]
	pt := &Point{Config: PointConfig(BarnesHut, spec.PPC, spec.SCCBytes, sysmodel.Axes{}), Result: &sim.Result{Cycles: 9, Refs: 3}}
	good, _ := json.Marshal(map[string]any{"status": "done", "point": pt})
	f.Add(good, spec.PPC, spec.SCCBytes)
	f.Add([]byte(`{"status":"failed","error":"x"}`), 1, 4096)
	f.Add([]byte(`{"status":"done","point":{"Config":{"Clusters":4},"Result":{"Cycles":1}}}`), 2, 8192)
	f.Add(good[:len(good)/2], 8, 512*1024)
	f.Add([]byte(`[]`), 0, 0)
	f.Fuzz(func(t *testing.T, raw []byte, ppc, scc int) {
		decoded, err := DecodePointEnvelope(raw)
		if err != nil {
			if decoded != nil {
				t.Fatal("rejected envelope returned a point")
			}
			return
		}
		if decoded == nil || decoded.Result == nil {
			t.Fatal("accepted envelope without a result")
		}
		// The coordinator asked the worker for (ppc, scc).
		cfg := PointConfig(BarnesHut, ppc, scc, sysmodel.Axes{})
		local := &Point{Config: cfg, Result: &sim.Result{}}
		remote := func(context.Context, Workload, PointSpec) (*Point, error) { return decoded, nil }
		run := offerRemote(BarnesHut, cfg, EngineOptions{Remote: remote},
			func(context.Context, sim.Tracer) (*Point, error) { return local, nil })
		got, err := run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Config != cfg {
			t.Fatalf("accepted a point for %+v, asked for %+v", got.Config, cfg)
		}
		if (got == decoded) != (decoded.Config == cfg) {
			t.Fatalf("remote point for %+v used=%v, asked for %+v", decoded.Config, got == decoded, cfg)
		}
	})
}
