// Cluster mode: the server-side half of sharded sweep execution. A
// coordinator keeps a registry of worker nodes (registration doubles
// as heartbeat; entries expire after a TTL) and, when a sweep job
// runs, snapshots the healthy workers into an httpCluster (client.go)
// so the engine offers every design point to the fleet — with local
// simulation as the per-point fallback, so losing workers mid-sweep
// costs retries, never correctness. The same module serves the
// fleet-shared trace cache: GET /v1/trace/{digest} streams a
// content-addressed cache entry to peers, and a worker configured with
// a peer URL wraps its disk cache in a trace.PeerCache that pulls
// missing entries from the coordinator before regenerating them.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"sccsim"
	"sccsim/internal/trace"
)

// ClusterOptions configures the server's coordinator/worker behaviour.
// The zero value is a standalone node: no workers are accepted until
// they register, and the trace cache stays local.
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
	// PeerTraceURL, when set on a worker, is the base URL of a peer
	// node (normally the coordinator) whose trace cache is consulted —
	// via GET /v1/trace/{digest} — before this node regenerates a
	// workload trace. Requires TraceCacheDir.
	PeerTraceURL string
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
	sortStrings(urls)
	nodes := make([]*workerNode, len(urls))
	for i, u := range urls {
		nodes[i] = s.workers[u]
	}
	return nodes
}

// sortStrings is insertion sort over the handful of worker URLs —
// avoids pulling sort into the hot path for a fleet of single digits.
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// clusterRemote snapshots the healthy workers into a Remote for one
// sweep job, or nil when the node has no usable fleet.
func (s *Server) clusterRemote() sccsim.Remote {
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
	return newHTTPCluster(urls, s.opts.Cluster)
}

// handleTrace serves GET /v1/trace/{digest}: the raw .scct bytes of a
// content-addressed trace cache entry, 404 when this node does not
// have it (or has no disk cache at all). Peers treat any non-200 as a
// cache miss and regenerate locally, so this endpoint never needs to
// be more precise than hit/miss.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	dc := s.traceDC
	if dc == nil {
		writeError(w, http.StatusNotFound, "no trace cache on this node")
		return
	}
	digest := r.PathValue("digest")
	rc, err := dc.OpenDigest(digest)
	if err != nil {
		s.reg.Counter("serve.trace_serve_misses").Inc()
		writeError(w, http.StatusNotFound, "no cached trace for digest")
		return
	}
	defer rc.Close()
	s.reg.Counter("serve.trace_served").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
}

// buildTraceStore wires the server's trace cache stack from its
// options: nothing without a cache dir, the plain disk cache
// standalone, and a peer-fetching cache when a peer URL is configured.
// An unusable cache directory degrades to no cache (the library
// regenerates traces) rather than failing construction.
func (s *Server) buildTraceStore() {
	if s.opts.TraceCacheDir == "" {
		return
	}
	dc, err := trace.NewDiskCache(s.opts.TraceCacheDir)
	if err != nil {
		if s.logger != nil {
			s.logger.Warn("trace cache unavailable", "err", err.Error())
		}
		return
	}
	s.traceDC = dc
	if peer := strings.TrimRight(s.opts.Cluster.PeerTraceURL, "/"); peer != "" {
		pc := trace.NewPeerCache(dc, func(digest string) (io.ReadCloser, error) {
			return fetchPeerTrace(s.baseCtx, peer, digest)
		})
		pc.OnFetch(func(hit bool) {
			if hit {
				s.reg.Counter("serve.trace_fetch_hits").Inc()
			} else {
				s.reg.Counter("serve.trace_fetch_misses").Inc()
			}
		})
		s.traceStore = pc
		return
	}
	s.traceStore = dc
}

// fetchPeerTrace is the PeerCache transport: one GET against the peer's
// trace endpoint, returning the body stream on 200.
func fetchPeerTrace(ctx context.Context, peerURL, digest string) (io.ReadCloser, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/v1/trace/"+digest, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("peer trace fetch: status %d", resp.StatusCode)
	}
	return &cancelReadCloser{ReadCloser: resp.Body, cancel: cancel}, nil
}

// cancelReadCloser ties a request-scoped cancel to the body's Close.
type cancelReadCloser struct {
	io.ReadCloser
	cancel context.CancelFunc
}

// Close closes the body and releases the request context.
func (c *cancelReadCloser) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
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
