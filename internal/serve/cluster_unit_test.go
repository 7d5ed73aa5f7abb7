// White-box tests of cluster mode's server half: the worker registry
// (registration, heartbeat expiry, validation) and the worker-side
// heartbeat helpers. The multi-node integration paths live in
// clustertest.

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func registerBody(t *testing.T, url, worker string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"url":"`+worker+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func clusterStatus(t *testing.T, url string) ClusterStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterRegistryLifecycle: registration is an idempotent upsert
// that doubles as heartbeat; unrenewed workers expire after the TTL
// and leave the sweep-sharding pool.
func TestClusterRegistryLifecycle(t *testing.T) {
	s := New(Options{Cluster: ClusterOptions{HeartbeatTTL: 150 * time.Millisecond}})
	ts := httptest.NewServer(s)
	defer ts.Close()

	r := registerBody(t, ts.URL, "http://worker-a:1/")
	defer r.Body.Close()
	var rr RegisterResponse
	if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "ok" || rr.Workers != 1 || rr.TTLMS != 150 {
		t.Fatalf("register response %+v", rr)
	}
	// Same worker again (trailing slash stripped): still one entry.
	r2 := registerBody(t, ts.URL, "http://worker-a:1")
	r2.Body.Close()
	r3 := registerBody(t, ts.URL, "http://worker-b:2")
	r3.Body.Close()
	st := clusterStatus(t, ts.URL)
	if len(st.Workers) != 2 || st.Workers[0].URL != "http://worker-a:1" {
		t.Fatalf("cluster status %+v, want two workers sorted by URL", st.Workers)
	}
	if rem := s.clusterRemote(experiment{}, ""); rem == nil {
		t.Fatal("healthy registry produced no Remote")
	}

	// No heartbeats: both expire and sharding turns off.
	time.Sleep(200 * time.Millisecond)
	if st := clusterStatus(t, ts.URL); len(st.Workers) != 0 {
		t.Fatalf("expired workers still listed: %+v", st.Workers)
	}
	if rem := s.clusterRemote(experiment{}, ""); rem != nil {
		t.Fatal("expired registry still produced a Remote")
	}
}

// TestClusterRegisterValidation: malformed bodies and non-absolute
// URLs are client errors.
func TestClusterRegisterValidation(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, body := range []string{
		`{"url":""}`, `{"url":"worker:80"}`, `{"url":"ftp://x"}`, `{not json`,
		`{"url":"http://x","extra":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/cluster/register", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRegisterWorkerAndHeartbeatLoop: the worker-side helpers register
// against a live coordinator and keep the registration alive past the
// TTL until cancelled.
func TestRegisterWorkerAndHeartbeatLoop(t *testing.T) {
	s := New(Options{Cluster: ClusterOptions{HeartbeatTTL: 300 * time.Millisecond}})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ttl, err := RegisterWorker(context.Background(), ts.URL+"/", "http://self:9")
	if err != nil {
		t.Fatal(err)
	}
	if ttl != 300*time.Millisecond {
		t.Fatalf("granted TTL %v, want 300ms", ttl)
	}
	if _, err := RegisterWorker(context.Background(), ts.URL, ""); err == nil {
		t.Fatal("empty self URL accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		HeartbeatLoop(ctx, ts.URL, "http://self:9")
		close(done)
	}()
	// Well past the TTL, the heartbeat keeps the worker healthy.
	time.Sleep(700 * time.Millisecond)
	if st := clusterStatus(t, ts.URL); len(st.Workers) != 1 {
		t.Fatalf("heartbeating worker not healthy: %+v", st.Workers)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("HeartbeatLoop did not stop on cancel")
	}
}
