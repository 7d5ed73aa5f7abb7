package sccsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"sccsim"
	"sccsim/internal/serve"
)

// decodeStrict decodes a worker-bound request body exactly as the
// server does (DisallowUnknownFields), pinning the facade's mirrored
// wire structs to the serve package's schema: a drifted field name
// fails here before it can fail in a cluster.
func decodeStrict(t *testing.T, r io.Reader, into any) {
	t.Helper()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("worker request does not match the serve wire schema: %v", err)
	}
}

func TestHTTPClusterSpeaksTheServeWireSchema(t *testing.T) {
	var got serve.PointRequest
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/point" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		decodeStrict(t, r.Body, &got)
		pt, err := sccsim.Do(r.Context(), sccsim.Workload(got.Workload),
			sccsim.WithScale(scaleOf(got.ScaleSpec)),
			sccsim.WithPoint(got.ProcsPerCluster, got.SCCBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "done", "point": pt})
	}))
	defer worker.Close()

	c := sccsim.NewHTTPCluster(sccsim.ClusterSpec{Workers: []string{worker.URL + "/"}})
	if w := c.Workers(); len(w) != 1 || w[0] != worker.URL {
		t.Fatalf("Workers() = %v, want normalized %q", w, worker.URL)
	}
	s := sccsim.QuickScale()
	// Every data field of the simulator options, so a field the facade
	// sends but serve.SimSpec lacks fails the strict decode above.
	opts := sccsim.Options{WriteBufferDepth: 3, BusOccupancy: 2, SwitchPenalty: 7,
		MemBanks: 4, MemBankOccupancy: 5, VictimEntries: 6, WarmupRefs: 8}
	pt, err := c.RunPoint(context.Background(), sccsim.RemotePoint{
		Workload: sccsim.BarnesHut, ProcsPerCluster: 2, SCCBytes: 32 * 1024,
		Scale: s, Sim: opts, Verify: true, Backend: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt == nil || pt.Result == nil || pt.Config.ProcsPerCluster != 2 {
		t.Fatalf("remote point = %+v", pt)
	}
	if got.Workload != "barnes-hut" || got.Backend != "exact" {
		t.Fatalf("wire request = %+v", got)
	}
	if got.ScaleSpec == nil || scaleOf(got.ScaleSpec) != s {
		t.Fatalf("scale did not survive the wire: %+v", got.ScaleSpec)
	}
	want := serve.SimSpec{WriteBufferDepth: 3, BusOccupancy: 2, SwitchPenalty: 7,
		MemBanks: 4, MemBankOccupancy: 5, VictimEntries: 6, WarmupRefs: 8, Verify: true}
	if got.Sim == nil || *got.Sim != want {
		t.Fatalf("simulator options did not survive the wire: %+v, want %+v", got.Sim, want)
	}
}

func TestHTTPClusterRetriesAcrossWorkers(t *testing.T) {
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	var liveHits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		liveHits.Add(1)
		var req serve.PointRequest
		decodeStrict(t, r.Body, &req)
		pt, err := sccsim.Do(r.Context(), sccsim.Workload(req.Workload),
			sccsim.WithScale(scaleOf(req.ScaleSpec)),
			sccsim.WithPoint(req.ProcsPerCluster, req.SCCBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "done", "point": pt})
	}))
	defer live.Close()

	c := sccsim.NewHTTPCluster(sccsim.ClusterSpec{
		Workers: []string{dead.URL, live.URL}, Retries: 3, BackoffMS: 1, CooldownMS: 60_000,
	})
	rp := sccsim.RemotePoint{
		Workload: sccsim.BarnesHut, ProcsPerCluster: 1, SCCBytes: 64 * 1024,
		Scale: sccsim.QuickScale(),
	}
	if _, err := c.RunPoint(context.Background(), rp); err != nil {
		t.Fatal(err)
	}
	if liveHits.Load() == 0 {
		t.Fatal("live worker never reached")
	}
	// The dead worker is cooling down: the next point goes straight to
	// the live one.
	before := deadHits.Load()
	if _, err := c.RunPoint(context.Background(), rp); err != nil {
		t.Fatal(err)
	}
	if deadHits.Load() != before {
		t.Fatal("cooling-down worker was offered another job")
	}
}

func TestHTTPClusterTerminalFailures(t *testing.T) {
	// No workers at all.
	c := sccsim.NewHTTPCluster(sccsim.ClusterSpec{})
	rp := sccsim.RemotePoint{Workload: sccsim.BarnesHut, ProcsPerCluster: 1,
		SCCBytes: 64 * 1024, Scale: sccsim.QuickScale()}
	if _, err := c.RunPoint(context.Background(), rp); err == nil {
		t.Fatal("empty cluster succeeded")
	}

	// Every worker failing: bounded attempts, then an error (the sweep
	// engine's local fallback takes over from there).
	var hits atomic.Int64
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	c = sccsim.NewHTTPCluster(sccsim.ClusterSpec{Workers: []string{down.URL}, Retries: 2, BackoffMS: 1})
	if _, err := c.RunPoint(context.Background(), rp); err == nil {
		t.Fatal("all-down cluster succeeded")
	}
	if hits.Load() != 3 {
		t.Fatalf("%d attempts, want retries+1 = 3", hits.Load())
	}

	// A worker serving garbage is a failure, not a bad point.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"done"}`)
	}))
	defer garbage.Close()
	c = sccsim.NewHTTPCluster(sccsim.ClusterSpec{Workers: []string{garbage.URL}, Retries: 0, BackoffMS: 1})
	if _, err := c.RunPoint(context.Background(), rp); err == nil {
		t.Fatal("resultless envelope accepted")
	}

	// Cancellation aborts immediately with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c = sccsim.NewHTTPCluster(sccsim.ClusterSpec{Workers: []string{down.URL}, Retries: 5, BackoffMS: 1})
	if _, err := c.RunPoint(ctx, rp); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepWithClusterFallsBackWhenRemoteFails: WithCluster over a
// remote that always errors still produces the single-node grid.
func TestSweepWithClusterFallsBackWhenRemoteFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep")
	}
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	ctx := context.Background()
	want, err := sccsim.SweepCtx(ctx, sccsim.BarnesHut, sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	got, err := sccsim.SweepCtx(ctx, sccsim.BarnesHut,
		sccsim.WithScale(sccsim.QuickScale()),
		sccsim.WithCluster(remoteFunc(func(ctx context.Context, rp sccsim.RemotePoint) (*sccsim.Point, error) {
			return nil, errors.New("no workers")
		})))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("cluster-fallback grid differs from single-node grid")
	}
}

// scaleOf rebuilds the library Scale from its wire form.
func scaleOf(sp *serve.ScaleSpec) sccsim.Scale {
	if sp == nil {
		return sccsim.PaperScale()
	}
	return sccsim.Scale{
		BarnesBodies: sp.BarnesBodies, BarnesSteps: sp.BarnesSteps,
		MP3DParticles: sp.MP3DParticles, MP3DSteps: sp.MP3DSteps,
		MultiprogRefs: sp.MultiprogRefs,
		CholeskyGridW: sp.CholeskyGridW, CholeskyGridH: sp.CholeskyGridH,
		Seed: sp.Seed,
	}
}

// remoteFunc adapts a function to the Remote interface for tests.
type remoteFunc func(ctx context.Context, rp sccsim.RemotePoint) (*sccsim.Point, error)

func (f remoteFunc) RunPoint(ctx context.Context, rp sccsim.RemotePoint) (*sccsim.Point, error) {
	return f(ctx, rp)
}
