// The distributed sweep's contract, pinned over real HTTP: a sharded
// sweep returns the same bytes as the single-node library; killing a
// worker mid-sweep costs retries, never points; draining a coordinator
// finishes every admitted job on the distributed path.

package clustertest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sccsim"
	"sccsim/internal/serve"
)

// tinyScale is a multiprogramming scale small enough for a full
// 32-point grid per test, large enough to exercise real simulation.
func tinyScale(seed int64) sccsim.Scale {
	s := sccsim.Scale{MultiprogRefs: 6000, Seed: seed}
	return s
}

func tinySweepBody(seed int64, extra string) string {
	return fmt.Sprintf(`{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":%d}%s}`, seed, extra)
}

// rawSweep decodes a sweep response keeping the grid's raw bytes so
// byte-identity is checked on what actually crossed the wire.
type rawSweep struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cache  string          `json:"cache"`
	Grid   json.RawMessage `json:"grid"`
	Error  string          `json:"error"`
}

func postSweep(t *testing.T, url, body string) rawSweep {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs rawSweep
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rs.Status != "done" {
		t.Fatalf("sweep: status %d/%s error %q", resp.StatusCode, rs.Status, rs.Error)
	}
	return rs
}

// singleNodeGrid computes the reference grid with the plain library.
func singleNodeGrid(t *testing.T, seed int64) []byte {
	t.Helper()
	g, err := sccsim.SweepCtx(context.Background(), sccsim.Multiprog,
		sccsim.WithScale(tinyScale(seed)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestThreeNodeSweepByteIdentity: a sweep sharded across three workers
// returns, over the wire, exactly the bytes the single-node library
// produces — and the workers really did serve points.
func TestThreeNodeSweepByteIdentity(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	want := singleNodeGrid(t, 31)

	c := Start(t, Options{Workers: 3})
	rs := postSweep(t, c.URL, tinySweepBody(31, ""))
	if !bytes.Equal(bytes.TrimSpace(rs.Grid), bytes.TrimSpace(want)) {
		t.Fatal("cluster grid differs from single-node grid")
	}
	remote := c.Coordinator.Metrics().Counter("explorer.cluster_remote_points").Value()
	if remote == 0 {
		t.Fatal("no points were served by workers")
	}
	var workerJobs int64
	for _, w := range c.Workers {
		workerJobs += int64(w.Server.Metrics().Counter("serve.jobs_done").Value())
	}
	if workerJobs == 0 {
		t.Fatal("worker nodes report no completed jobs")
	}
	t.Logf("remote points: %d, worker jobs: %d", remote, workerJobs)
}

// TestShardedPointsCarryRequestID: the X-Request-ID of a coordinator
// sweep travels with every point it shards, so each worker records its
// POST /v1/point requests under that ID and grepping one ID across the
// fleet tells the request's whole story.
func TestShardedPointsCarryRequestID(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	c := Start(t, Options{Workers: 2})

	const reqID = "shard-1"
	req, err := http.NewRequest(http.MethodPost, c.URL+"/v1/sweep", strings.NewReader(tinySweepBody(35, "")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}

	var tagged, other int
	for _, w := range c.Workers {
		resp, err := http.Get(w.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		var dr serve.DebugRequestsResponse
		err = json.NewDecoder(resp.Body).Decode(&dr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range dr.Requests {
			if rec.Route != "POST /v1/point" {
				continue
			}
			if rec.ID == reqID {
				tagged++
			} else {
				other++
			}
		}
	}
	if tagged == 0 || other != 0 {
		t.Fatalf("worker POST /v1/point records: %d under %q, %d under other IDs", tagged, reqID, other)
	}
}

// TestWorkerKillMidSweepRecovers: killing a worker while a streamed
// sweep is in flight loses no points and duplicates none — the grid is
// still byte-identical, every design point completes exactly once, and
// the coordinator's fallback path absorbs the failures.
func TestWorkerKillMidSweepRecovers(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	want := singleNodeGrid(t, 32)

	c := Start(t, Options{Workers: 3, PointTimeoutMS: 5000})
	resp, err := http.Post(c.URL+"/v1/sweep", "application/json",
		strings.NewReader(tinySweepBody(32, `,"stream":true`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type event struct {
		Event    string           `json:"event"`
		Progress *sccsim.Progress `json:"progress"`
		Result   *rawSweep        `json:"result"`
		Error    string           `json:"error"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		terminal  *rawSweep
		progress  int
		seen      = map[string]int{}
		killed    bool
		duplicate string
	)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "progress":
			progress++
			key := fmt.Sprintf("%dP/%dB", ev.Progress.Config.ProcsPerCluster,
				ev.Progress.Config.SCCBytes)
			seen[key]++
			if seen[key] > 1 {
				duplicate = key
			}
			if !killed && progress == 2 {
				// Two points in: the sweep is live. Kill a worker.
				c.Workers[0].Kill()
				killed = true
			}
		case "result":
			terminal = ev.Result
		case "error":
			t.Fatalf("sweep failed after worker kill: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("stream ended before the kill could happen")
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal result")
	}
	if duplicate != "" {
		t.Fatalf("design point %s completed more than once", duplicate)
	}
	if len(seen) != progress {
		t.Fatalf("%d progress events over %d distinct points", progress, len(seen))
	}
	if !bytes.Equal(bytes.TrimSpace(terminal.Grid), bytes.TrimSpace(want)) {
		t.Fatal("post-kill grid differs from single-node grid")
	}
}

// TestKilledWorkerRejoins: a worker killed during one sweep serves
// points again after Restart — the registry keeps it, the HTTP cluster
// only cools it down.
func TestKilledWorkerRejoins(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	c := Start(t, Options{
		Workers:        1,
		PointTimeoutMS: 2000,
		// A dead fleet means 32 points' worth of failed attempts; keep
		// the retry budget minimal so the local fallback is quick.
		Coordinator: serve.Options{Cluster: serve.ClusterOptions{Retries: 1, BackoffMS: 1}},
	})
	c.Workers[0].Kill()
	// Killed fleet: the sweep still completes, fully local.
	rs := postSweep(t, c.URL, tinySweepBody(33, ""))
	if rs.Status != "done" {
		t.Fatalf("sweep with dead fleet: %+v", rs)
	}
	before := c.Workers[0].Server.Metrics().Counter("serve.jobs_done").Value()
	if before != 0 {
		t.Fatalf("dead worker completed %d jobs", before)
	}

	c.Workers[0].Restart()
	// New experiment (different seed → no result-cache hit). The
	// restarted worker serves again.
	_ = postSweep(t, c.URL, tinySweepBody(34, ""))
	if got := c.Workers[0].Server.Metrics().Counter("serve.jobs_done").Value(); got == 0 {
		t.Fatal("restarted worker served nothing")
	}
}

// TestDistributedDrain: a coordinator draining with async sweeps and
// synchronous searches in flight — all on the cluster path — finishes
// every admitted job; nothing is lost or left undecided.
func TestDistributedDrain(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	c := Start(t, Options{Workers: 2})

	// Async sweeps: accepted then queried after the drain.
	var ids []string
	for seed := int64(41); seed <= 43; seed++ {
		resp, err := http.Post(c.URL+"/v1/sweep", "application/json",
			strings.NewReader(tinySweepBody(seed, `,"wait":false`)))
		if err != nil {
			t.Fatal(err)
		}
		var rs rawSweep
		if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async sweep: status %d", resp.StatusCode)
		}
		ids = append(ids, rs.ID)
	}

	// Concurrent synchronous searches racing the drain.
	var wg sync.WaitGroup
	searchStatus := make([]string, 2)
	for i := range searchStatus {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":%d},`+
				`"search":{"space":{"procs_per_cluster":[1,2],"scc_bytes":[8192,16384]}}}`, 50+i)
			resp, err := http.Post(c.URL+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				searchStatus[i] = "transport:" + err.Error()
				return
			}
			defer resp.Body.Close()
			var sr struct {
				Status string `json:"status"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&sr)
			searchStatus[i] = sr.Status
		}(i)
	}

	// Give the searches a moment to be admitted, then drain.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Coordinator.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	for i, st := range searchStatus {
		if st != "done" {
			t.Errorf("search %d ended %q, want done", i, st)
		}
	}
	for _, id := range ids {
		resp, err := http.Get(c.URL + "/v1/sweep/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string          `json:"status"`
			Grid   json.RawMessage `json:"grid"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status != "done" || len(st.Grid) == 0 {
			t.Errorf("drained job %s: status %q (grid %d bytes), want done with a grid",
				id, st.Status, len(st.Grid))
		}
	}
}
