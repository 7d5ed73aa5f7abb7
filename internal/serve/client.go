// The cluster client: how a coordinator's sweep reaches its workers. A
// sweep job hands the engine an httpCluster over the registry's healthy
// workers and its own experiment (clusterRemote); the engine offers it
// every design point and simulates locally whenever it fails. Each
// point travels as the sweep's experiment made a point job, encoded as
// the PointRequest a worker's handlePoint decodes — the same type on
// both ends, so the two cannot drift, and a field added to the
// experiment reaches workers without a change here.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/explorer"
)

// clusterCooldown is how long a worker that failed an attempt sits out
// before it is offered points again.
const clusterCooldown = 3 * time.Second

// clusterWorker is one worker node's selection state.
type clusterWorker struct {
	url       string
	downUntil time.Time
}

// httpCluster is the sccsim.Remote a coordinator's sweep uses. Workers
// are picked round-robin; a failed worker sits out a cooldown; each
// point gets a bounded number of attempts with exponential backoff
// before the engine's local fallback takes over. Every attempt carries
// the sweep's request ID. Safe for concurrent use.
type httpCluster struct {
	client    *http.Client
	retries   int
	backoff   time.Duration
	timeout   time.Duration
	exp       experiment // the sweep's; each point posts it as a point job
	requestID string     // sent as X-Request-ID ("": none)

	mu      sync.Mutex
	workers []clusterWorker
	next    int
}

// newHTTPCluster builds the client for the sweep experiment e over
// worker base URLs, taking its retries, backoff and per-attempt timeout
// from o, and stamping every point it posts with requestID. An empty
// worker list makes every RunPoint fail, i.e. the sweep runs fully
// local.
func newHTTPCluster(urls []string, o ClusterOptions, e experiment, requestID string) *httpCluster {
	c := &httpCluster{
		client:    &http.Client{},
		retries:   o.Retries,
		backoff:   time.Duration(o.BackoffMS) * time.Millisecond,
		timeout:   time.Duration(o.PointTimeoutMS) * time.Millisecond,
		exp:       e,
		requestID: requestID,
	}
	if c.retries <= 0 {
		c.retries = 2
	}
	if c.backoff <= 0 {
		c.backoff = 50 * time.Millisecond
	}
	if c.timeout <= 0 {
		c.timeout = 120 * time.Second
	}
	for _, u := range urls {
		c.workers = append(c.workers, clusterWorker{url: u})
	}
	return c
}

// pick returns the next worker to offer a job to: round-robin over
// workers not in cooldown, falling back to plain round-robin when the
// whole fleet is cooling down (a lone flaky worker beats none).
func (c *httpCluster) pick() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.workers)
	if n == 0 {
		return "", false
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		w := &c.workers[(c.next+i)%n]
		if now.After(w.downUntil) {
			c.next = (c.next + i + 1) % n
			return w.url, true
		}
	}
	u := c.workers[c.next%n].url
	c.next = (c.next + 1) % n
	return u, true
}

// markDown puts a worker in cooldown after a failed attempt.
func (c *httpCluster) markDown(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.workers {
		if c.workers[i].url == url {
			c.workers[i].downUntil = time.Now().Add(clusterCooldown)
		}
	}
}

// pointRequest is the body that asks a worker for the point experiment
// e, its scale spelled out so worker-side presets cannot drift, capped
// by timeout (0: the worker's default).
func pointRequest(e experiment, timeout time.Duration) PointRequest {
	scale := e.Scale
	return PointRequest{
		Workload: string(e.Workload), Backend: string(e.Backend), ScaleSpec: &scale,
		ProcsPerCluster: e.PPC, SCCBytes: e.SCCBytes, Sim: e.Sim, Axes: e.Axes,
		TimeoutMS: timeout.Milliseconds(),
	}
}

// RunPoint posts the sweep's experiment at the design point to a worker
// and decodes the result, retrying on other workers (with exponential
// backoff and per-worker cooldown) before giving up. Any terminal error
// means "the caller simulates locally"; context cancellation aborts
// immediately.
func (c *httpCluster) RunPoint(ctx context.Context, w sccsim.Workload, procsPerCluster, sccBytes int) (*sccsim.Point, error) {
	e := c.exp
	e.Kind, e.Workload, e.PPC, e.SCCBytes = jobPoint, w, procsPerCluster, sccBytes
	body, err := json.Marshal(pointRequest(e, c.timeout))
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			d := c.backoff << (attempt - 1)
			if max := c.backoff << 3; d > max {
				d = max
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		url, ok := c.pick()
		if !ok {
			return nil, fmt.Errorf("serve: cluster has no workers")
		}
		pt, err := c.post(ctx, url, body)
		if err == nil {
			return pt, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.markDown(url)
		lastErr = fmt.Errorf("worker %s: %w", url, err)
	}
	return nil, fmt.Errorf("serve: remote point failed after %d attempts: %w", c.retries+1, lastErr)
}

// post runs one attempt against one worker.
func (c *httpCluster) post(ctx context.Context, url string, body []byte) (*sccsim.Point, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url+"/v1/point", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.requestID != "" {
		req.Header.Set("X-Request-ID", c.requestID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(raw))
	}
	return explorer.DecodePointEnvelope(raw)
}

// firstLine truncates an error body for diagnostics.
func firstLine(raw []byte) string {
	s := strings.TrimSpace(string(raw))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
