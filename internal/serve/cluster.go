// Cluster mode: the server-side half of sharded sweep execution. A
// coordinator keeps a registry of worker nodes (registration doubles
// as heartbeat; entries expire after a TTL) and, when a sweep job
// runs, snapshots the healthy workers into an httpCluster (client.go)
// so the engine offers every design point to the fleet — with local
// simulation as the per-point fallback, so losing workers mid-sweep
// costs retries, never correctness.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"time"

	"sccsim"
)

// ClusterOptions configures the server's worker registry and how its
// sweeps are sharded across the registered workers. The zero value
// takes the default noted on each field.
type ClusterOptions struct {
	// HeartbeatTTL is how long a worker registration stays healthy
	// without being renewed (<= 0: 15s). Workers re-register on a
	// shorter period (see HeartbeatLoop); an expired worker is dropped
	// from sweep sharding until it registers again.
	HeartbeatTTL time.Duration
	// Retries is how many times a sweep point is re-offered to a worker
	// after its first attempt fails, before the coordinator simulates
	// it locally (<= 0: 2).
	Retries int
	// BackoffMS is the base retry backoff in milliseconds, doubled per
	// attempt and capped at 8x (<= 0: 50).
	BackoffMS int64
	// PointTimeoutMS caps each remote point attempt (<= 0: 120s).
	PointTimeoutMS int64
}

func (o ClusterOptions) heartbeatTTL() time.Duration {
	if o.HeartbeatTTL > 0 {
		return o.HeartbeatTTL
	}
	return 15 * time.Second
}

// workerNode is one registered worker's registry entry.
type workerNode struct {
	url      string
	lastSeen time.Time
}

// RegisterRequest is the body of POST /v1/cluster/register: a worker
// announcing (or re-announcing — registration is the heartbeat) the
// base URL it serves the v1 API on.
type RegisterRequest struct {
	// URL is the worker's advertised base URL (e.g. "http://node1:8080").
	URL string `json:"url"`
}

// RegisterResponse is the body of POST /v1/cluster/register.
type RegisterResponse struct {
	// Status is "ok".
	Status string `json:"status"`
	// Workers is the registry's healthy-worker count after this
	// registration.
	Workers int `json:"workers"`
	// TTLMS echoes the registration TTL so workers can pick a safe
	// heartbeat period.
	TTLMS int64 `json:"ttl_ms"`
}

// WorkerStatus is one worker's entry in GET /v1/cluster.
type WorkerStatus struct {
	// URL is the worker's advertised base URL.
	URL string `json:"url"`
	// AgeMS is milliseconds since the worker last registered.
	AgeMS int64 `json:"age_ms"`
}

// ClusterStatus is the body of GET /v1/cluster: the healthy workers.
type ClusterStatus struct {
	// Workers lists the registered, unexpired workers.
	Workers []WorkerStatus `json:"workers"`
	// TTLMS is the registration TTL.
	TTLMS int64 `json:"ttl_ms"`
}

// handleClusterRegister serves POST /v1/cluster/register: upsert the
// worker keyed by its normalized URL, stamping the heartbeat time.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	url := strings.TrimRight(strings.TrimSpace(req.URL), "/")
	if url == "" || (!strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://")) {
		writeError(w, http.StatusBadRequest, "url must be an absolute http(s) base URL")
		return
	}
	s.workersMu.Lock()
	if s.workers == nil {
		s.workers = make(map[string]*workerNode)
	}
	if s.workers[url] == nil {
		s.reg.Counter("serve.cluster_registers").Inc()
		s.log(r.Context(), slog.LevelInfo, "worker registered", "worker", url)
	}
	s.workers[url] = &workerNode{url: url, lastSeen: time.Now()}
	n := len(s.pruneWorkersLocked())
	s.workersMu.Unlock()
	s.reg.Gauge("serve.cluster_workers").Set(int64(n))
	writeJSON(w, http.StatusOK, &RegisterResponse{
		Status: "ok", Workers: n,
		TTLMS: s.opts.Cluster.heartbeatTTL().Milliseconds(),
	})
}

// handleClusterStatus serves GET /v1/cluster.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.workersMu.Lock()
	nodes := s.pruneWorkersLocked()
	st := &ClusterStatus{
		Workers: make([]WorkerStatus, 0, len(nodes)),
		TTLMS:   s.opts.Cluster.heartbeatTTL().Milliseconds(),
	}
	for _, n := range nodes {
		st.Workers = append(st.Workers, WorkerStatus{
			URL: n.url, AgeMS: now.Sub(n.lastSeen).Milliseconds(),
		})
	}
	s.workersMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// pruneWorkersLocked drops expired registrations and returns the
// healthy workers in stable (URL-sorted) order. Callers hold workersMu.
func (s *Server) pruneWorkersLocked() []*workerNode {
	ttl := s.opts.Cluster.heartbeatTTL()
	cutoff := time.Now().Add(-ttl)
	urls := make([]string, 0, len(s.workers))
	for url, n := range s.workers {
		if n.lastSeen.Before(cutoff) {
			delete(s.workers, url)
			continue
		}
		urls = append(urls, url)
	}
	slices.Sort(urls)
	nodes := make([]*workerNode, len(urls))
	for i, u := range urls {
		nodes[i] = s.workers[u]
	}
	return nodes
}

// clusterRemote snapshots the healthy workers into a Remote for one
// sweep job running e, or nil when the node has no usable fleet. Every
// point it posts is e as a point job and carries requestID (the job's
// X-Request-ID), so a worker records the sharded points under the ID of
// the request that caused them.
func (s *Server) clusterRemote(e experiment, requestID string) sccsim.Remote {
	s.workersMu.Lock()
	nodes := s.pruneWorkersLocked()
	s.workersMu.Unlock()
	s.reg.Gauge("serve.cluster_workers").Set(int64(len(nodes)))
	if len(nodes) == 0 {
		return nil
	}
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	return newHTTPCluster(urls, s.opts.Cluster, e, requestID)
}

// RegisterWorker announces selfURL to the coordinator at
// coordinatorURL, returning the TTL the coordinator granted. It is one
// heartbeat; see HeartbeatLoop for the maintained version.
func RegisterWorker(ctx context.Context, coordinatorURL, selfURL string) (time.Duration, error) {
	body, err := json.Marshal(RegisterRequest{URL: selfURL})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	url := strings.TrimRight(coordinatorURL, "/") + "/v1/cluster/register"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("register with %s: status %d: %s",
			coordinatorURL, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, err
	}
	return time.Duration(rr.TTLMS) * time.Millisecond, nil
}

// HeartbeatLoop keeps a worker registered until ctx is cancelled:
// re-registering at a third of the coordinator's TTL, retrying on a
// short period while the coordinator is unreachable (registration is
// idempotent, so over-registering is harmless). Run it in a goroutine
// next to the worker's HTTP server.
func HeartbeatLoop(ctx context.Context, coordinatorURL, selfURL string) {
	period := 2 * time.Second
	for {
		if ttl, err := RegisterWorker(ctx, coordinatorURL, selfURL); err == nil {
			period = ttl / 3
			if period < 50*time.Millisecond {
				period = 50 * time.Millisecond
			}
		} else {
			period = 2 * time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(period):
		}
	}
}
