package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sccsim"
	"sccsim/internal/serve"
	"sccsim/internal/sim"
	"sccsim/internal/stats"
	"sccsim/internal/trace"
)

// serveConfig sizes serve-mixed.
type serveConfig struct {
	scale     sccsim.Scale // problem sizes of every request (seed set per key)
	rate      float64      // open-loop arrivals per second
	closedN   int          // requests per closed-loop pass
	coldSeeds int          // seeds of the cold trace keys
}

// The request mix, in requests per block of 20: 50% hot points, 20% hot
// sweeps, 25% cold exact points, 5% cold analytic points. Hot keys are
// computed at set-up, so the result cache serves them; every cold
// request names a design point no earlier request named, so replay or
// profiling serves it.
var requestMix = []struct {
	class    string
	perBlock int
}{
	{"hot_point", 10},
	{"hot_sweep", 4},
	{"cold_exact", 5},
	{"cold_analytic", 1},
}

// coldKey is one cold trace key: 3 apps x 4 processor counts x
// coldSeeds seeds, 36 at paper settings — more than the engine's
// 32-entry in-memory trace cache holds, so the cache's wholesale wipe
// and the disk trace cache are on the timed path.
type coldKey struct {
	app  sccsim.Workload
	ppc  int
	seed int64
}

// request is one HTTP request of the mix. Requests with equal keys must
// get byte-identical results.
type request struct {
	class string
	path  string
	key   string
	body  []byte
	point *serve.PointRequest
	sweep *serve.SweepRequest
}

// serveMixed drives an in-process serve.Server over a loopback
// listener: an open loop of seeded exponential arrivals (latency charged
// from each request's due time), then a closed loop over a fixed
// request sequence with one client per CPU.
type serveMixed struct {
	cfg serveConfig

	srv    *serve.Server
	hs     *http.Server
	served sync.WaitGroup
	client *http.Client
	base   string

	hotPoints []serve.PointRequest
	hotSweeps []serve.SweepRequest
	cold      []coldKey
	uses      map[string]int // per cold key and backend, for unique sizes

	mu       sync.Mutex
	seen     map[string][sha256.Size]byte // request key -> result digest
	samples  map[string]*sampleResp       // class -> first response
	verified map[string]bool
	coldRefs uint64
	shed     int
	busy     time.Duration // set-up sweeps' engine busy time
	slots    time.Duration // and workers x wall
}

type sampleResp struct {
	req     *request
	payload []byte
}

func (s *serveMixed) scale(seed int64) sccsim.Scale {
	sc := s.cfg.scale
	sc.Seed = seed
	return sc
}

func scaleSpec(s sccsim.Scale) *serve.ScaleSpec {
	return &serve.ScaleSpec{
		BarnesBodies: s.BarnesBodies, BarnesSteps: s.BarnesSteps,
		MP3DParticles: s.MP3DParticles, MP3DSteps: s.MP3DSteps,
		MultiprogRefs: s.MultiprogRefs, CholeskyGridW: s.CholeskyGridW,
		CholeskyGridH: s.CholeskyGridH, Seed: s.Seed,
	}
}

func specScale(s *serve.ScaleSpec) sccsim.Scale {
	return sccsim.Scale{
		BarnesBodies: s.BarnesBodies, BarnesSteps: s.BarnesSteps,
		MP3DParticles: s.MP3DParticles, MP3DSteps: s.MP3DSteps,
		MultiprogRefs: s.MultiprogRefs, CholeskyGridW: s.CholeskyGridW,
		CholeskyGridH: s.CholeskyGridH, Seed: s.Seed,
	}
}

// setup boots a server on a fresh trace-cache directory and warms it:
// every hot key once, and every cold trace key once so the traces are
// on disk.
func (s *serveMixed) setup(ctx context.Context, r *run) error {
	dir, err := os.MkdirTemp(r.work, "serve-traces-")
	if err != nil {
		return err
	}
	s.srv = serve.New(serve.Options{
		Workers: r.workers, Parallelism: r.workers, TraceCacheDir: dir,
		// Deep enough that the open loop is never shed. The result cache
		// holds 128 entries where the default is 32: cold results then
		// never evict a hot key (a hot key would have to go unrequested
		// for ~400 requests), and since every cached point result
		// currently keeps its simulator's caches alive, far more
		// entries would hold gigabytes.
		QueueDepth: 1024, CacheEntries: 128,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed at release
	}()
	s.base = "http://" + ln.Addr().String()
	// Both loops share one keep-alive connection pool, as a front end
	// talking to the service would: a request takes an idle connection
	// when there is one and dials a new one otherwise, so no open-loop
	// request waits for a connection to free up.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	s.seen = map[string][sha256.Size]byte{}
	s.samples = map[string]*sampleResp{}
	s.verified = map[string]bool{}
	s.uses = map[string]int{}
	s.coldRefs, s.shed, s.busy, s.slots = 0, 0, 0, 0

	hot := s.scale(r.seed)
	s.hotPoints, s.hotSweeps, s.cold = nil, nil, nil
	for _, app := range sccsim.AllWorkloads {
		for _, ppc := range []int{1, 4} {
			s.hotPoints = append(s.hotPoints, serve.PointRequest{
				Workload: string(app), ScaleSpec: scaleSpec(hot), ProcsPerCluster: ppc, SCCBytes: probeSize,
			})
		}
	}
	for _, app := range []sccsim.Workload{sccsim.MP3D, sccsim.Cholesky} {
		s.hotSweeps = append(s.hotSweeps, serve.SweepRequest{Workload: string(app), ScaleSpec: scaleSpec(hot)})
	}
	for i := 1; i <= s.cfg.coldSeeds; i++ {
		for _, app := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky} {
			for _, ppc := range sccsim.ProcsPerClusterSweep {
				s.cold = append(s.cold, coldKey{app, ppc, r.seed + int64(i)})
			}
		}
	}
	r.inputs["scale"] = hot
	r.inputs["hot_keys"] = len(s.hotPoints) + len(s.hotSweeps)
	r.inputs["cold_trace_keys"] = len(s.cold)

	var warm []*request
	for i := range s.hotPoints {
		warm = append(warm, s.pointRequest("hot_point", &s.hotPoints[i]))
	}
	for i := range s.hotSweeps {
		warm = append(warm, s.sweepRequest(&s.hotSweeps[i]))
	}
	for _, k := range s.cold {
		warm = append(warm, s.coldRequest("cold_exact", k, ""))
	}
	for _, q := range warm {
		if _, err := s.send(ctx, r, q); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveMixed) release() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Client first: a connection the transport dialed but never used is
	// new to the server, which waits 5 s before counting it idle.
	s.client.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx)
	s.served.Wait()
	_ = s.srv.Shutdown(ctx)
	s.srv = nil
	sccsim.ResetTraceCache()
}

func (s *serveMixed) pointRequest(class string, p *serve.PointRequest) *request {
	body, _ := json.Marshal(p) // a PointRequest always marshals
	return &request{class: class, path: "/v1/point", key: "point " + string(body), body: body, point: p}
}

func (s *serveMixed) sweepRequest(p *serve.SweepRequest) *request {
	body, _ := json.Marshal(p) // a SweepRequest always marshals
	return &request{class: "hot_sweep", path: "/v1/sweep", key: "sweep " + string(body), body: body, sweep: p}
}

// coldRequest names a design point of the cold trace key no earlier
// request of the run named: the n-th use of a key gets the n-th size of
// a fixed permutation of 4 KB..512 KB in 1 KB steps (509 sizes, a prime,
// so the stride visits each once).
func (s *serveMixed) coldRequest(class string, k coldKey, backend string) *request {
	id := fmt.Sprintf("%s/%s/%d/%d", backend, k.app, k.ppc, k.seed)
	n := s.uses[id]
	s.uses[id]++
	size := 4*1024 + 1024*((n*211+k.ppc*37)%509)
	return s.pointRequest(class, &serve.PointRequest{
		Workload: string(k.app), Backend: backend, ScaleSpec: scaleSpec(s.scale(k.seed)),
		ProcsPerCluster: k.ppc, SCCBytes: size,
	})
}

// mixer deals requests in blocks holding the mix's exact proportions,
// each block shuffled by the seed, and cycles through each class's keys
// in a seeded order. Every stretch of traffic then carries the same
// classes and touches the keys evenly, so what a run measures depends
// on the seed's inputs, not on how a random draw happened to fall.
type mixer struct {
	s     *serveMixed
	rng   *rand.Rand
	block []string
	order map[string][]int // per class: its keys in dealing order
	next  map[string]int
}

func (s *serveMixed) newMixer(seed int64) *mixer {
	m := &mixer{s: s, rng: rand.New(rand.NewSource(seed)), order: map[string][]int{}, next: map[string]int{}}
	m.order["hot_point"] = m.rng.Perm(len(s.hotPoints))
	m.order["hot_sweep"] = m.rng.Perm(len(s.hotSweeps))
	m.order["cold_exact"] = m.rng.Perm(len(s.cold))
	m.order["cold_analytic"] = m.rng.Perm(len(s.cold))
	return m
}

// draw deals the next request.
func (m *mixer) draw() *request {
	if len(m.block) == 0 {
		for _, c := range requestMix {
			for i := 0; i < c.perBlock; i++ {
				m.block = append(m.block, c.class)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	class := m.block[0]
	m.block = m.block[1:]
	order := m.order[class]
	k := order[m.next[class]%len(order)]
	m.next[class]++
	switch class {
	case "hot_point":
		return m.s.pointRequest(class, &m.s.hotPoints[k])
	case "hot_sweep":
		return m.s.sweepRequest(&m.s.hotSweeps[k])
	case "cold_exact":
		return m.s.coldRequest(class, m.s.cold[k], "")
	}
	return m.s.coldRequest(class, m.s.cold[k], string(sccsim.BackendAnalytic))
}

// send makes one request and checks its response: a 200 whose result
// is byte-identical to every earlier result for the same key. It
// returns when the response had been read in full, so the checks are
// not charged to the request's latency.
func (s *serveMixed) send(ctx context.Context, r *run, q *request) (time.Time, error) {
	body, done, err := s.fetch(ctx, r, q)
	if err != nil {
		return done, err
	}
	return done, s.check(q, body)
}

func (s *serveMixed) fetch(ctx context.Context, r *run, q *request) ([]byte, time.Time, error) {
	sp := r.rec.begin(r.root, "serve.request."+q.class)
	defer r.rec.end(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+q.path, bytes.NewReader(q.body))
	if err != nil {
		return nil, time.Now(), err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, time.Now(), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			s.mu.Lock()
			s.shed++
			s.mu.Unlock()
		}
		return nil, done, fmt.Errorf("%s %s: HTTP %d: %.200s", q.class, q.path, resp.StatusCode, body)
	}
	return body, done, nil
}

func (s *serveMixed) check(q *request, body []byte) error {
	var env struct {
		Cache  string              `json:"cache"`
		Point  json.RawMessage     `json:"point"`
		Grid   json.RawMessage     `json:"grid"`
		Report *sccsim.SweepReport `json:"report"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: %w", q.class, err)
	}
	payload := env.Point
	if q.sweep != nil {
		payload = env.Grid
	}
	if len(payload) == 0 {
		return fmt.Errorf("%s: response has no result", q.class)
	}
	var refs uint64
	if q.class == "cold_exact" {
		var pt struct{ Result struct{ Refs uint64 } }
		if err := json.Unmarshal(payload, &pt); err != nil {
			return fmt.Errorf("%s: %w", q.class, err)
		}
		refs = pt.Result.Refs
	}
	sum := sha256.Sum256(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.seen[q.key]; ok && prev != sum {
		return fmt.Errorf("%s: result differs from an earlier response for the same request", q.class)
	}
	s.seen[q.key] = sum
	if s.samples[q.class] == nil {
		s.samples[q.class] = &sampleResp{q, append([]byte(nil), payload...)}
	}
	s.coldRefs += refs
	if env.Report != nil && env.Cache == "miss" {
		s.busy += env.Report.Busy
		s.slots += time.Duration(env.Report.Workers) * env.Report.Wall
	}
	return nil
}

// measure runs the open loop for about three quarters of the budget,
// then the closed loop: one pass over a fixed sequence of closedN
// requests. The open loop sends a fixed number of requests, the rate
// times its share of the budget, so every run of a given length does
// the same work; the seeded exponential gaps between them make its
// length vary a little.
func (s *serveMixed) measure(ctx context.Context, r *run, budget time.Duration) error {
	before, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	open := budget * 3 / 4
	arrivals := rand.New(rand.NewSource(r.seed))
	mix := s.newMixer(r.seed)
	due := make([]time.Duration, max(1, int(s.cfg.rate*open.Seconds())))
	reqs := make([]*request, len(due))
	var t time.Duration
	for i := range due {
		t += time.Duration(arrivals.ExpFloat64() / s.cfg.rate * float64(time.Second))
		due[i], reqs[i] = t, mix.draw()
	}
	s.mu.Lock()
	s.coldRefs = 0
	s.mu.Unlock()
	results := openLoop(ctx, due, func(i int) (time.Time, error) { return s.send(ctx, r, reqs[i]) })
	byClass := map[string][]float64{}
	var late []float64
	for i, res := range results {
		r.op(res.latency, reqs[i].class, res.err)
		byClass[reqs[i].class] = append(byClass[reqs[i].class], ms(res.latency))
		late = append(late, ms(res.late))
	}

	// One closed-loop pass, the same length whatever the budget left,
	// so the result cache and the heap end every run in the same state.
	var passRefs uint64
	sp := r.rec.begin(-1, "bench.pass")
	r.root = sp
	t0 := time.Now()
	err = s.closedPass(ctx, r, &passRefs)
	r.passes = append(r.passes, time.Since(t0))
	r.rec.end(sp)
	if err != nil {
		return err
	}
	after, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	s.rederive(ctx, r)

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("explorer.trace_cache_hits"), delta("explorer.trace_cache_misses")
	if hits+misses > 0 {
		r.layer["explorer.trace_cache_hit_ratio"] = hits / (hits + misses)
	}
	r.note("explorer.trace_disk_hits", delta("explorer.trace_disk_hits"), "count")
	r.note("explorer.trace_generated", delta("explorer.trace_generated"), "count")
	if ch, cm := delta("serve.cache_hits"), delta("serve.cache_misses"); ch+cm > 0 {
		r.note("serve.cache_outcome_ratio", ch/(ch+cm), "ratio")
	}
	hot := append(append([]float64(nil), byClass["hot_point"]...), byClass["hot_sweep"]...)
	cold := append(append([]float64(nil), byClass["cold_exact"]...), byClass["cold_analytic"]...)
	r.note("serve.hit_p50_ms", nearestRank(hot, 50), "ms")
	r.note("serve.compute_p50_ms", nearestRank(cold, 50), "ms")
	r.note("serve.send_late_ms_p90", nearestRank(late, 90), "ms")
	r.note("serve.p99_ms", nearestRank(r.ops, 99), "ms")
	r.note("serve.p99_samples_beyond", float64(beyond(len(r.ops), 99)), "count")
	r.note("serve.shed_count", float64(s.shed), "count")
	r.note("serve.capacity_rps", float64(s.cfg.closedN)/stats.Median(durationsS(r.passes)), "1/s")
	r.layer["sim.refs"] = float64(passRefs) / float64(max(1, len(r.passes)))
	r.inputs["open_loop_requests"] = len(reqs)
	r.inputs["closed_loop_requests"] = s.cfg.closedN
	return nil
}

// closedPass sends the fixed request sequence from one client per CPU,
// each client sending its next request when its previous one completed.
func (s *serveMixed) closedPass(ctx context.Context, r *run, refs *uint64) error {
	mix := s.newMixer(r.seed + 1)
	pass := make([]*request, s.cfg.closedN)
	for i := range pass {
		pass[i] = mix.draw()
	}
	s.mu.Lock()
	s.coldRefs = 0
	s.mu.Unlock()
	errs := parallel(ctx, len(pass), r.workers, func(i int) error {
		_, err := s.send(ctx, r, pass[i])
		return err
	})
	for i, err := range errs {
		r.attempted++
		if err != nil {
			r.fail("%s: %v", pass[i].class, err)
		}
	}
	s.mu.Lock()
	*refs += s.coldRefs
	s.mu.Unlock()
	return ctx.Err()
}

// rederive recomputes one response of each class through the library
// and checks the served result is byte-identical to it.
func (s *serveMixed) rederive(ctx context.Context, r *run) {
	for _, class := range sortedKeys(s.samples) {
		if s.verified[class] {
			continue
		}
		s.verified[class] = true
		sr := s.samples[class]
		var got any
		var err error
		if p := sr.req.point; p != nil {
			opts := []sccsim.Opt{sccsim.WithScale(specScale(p.ScaleSpec)), sccsim.WithPoint(p.ProcsPerCluster, p.SCCBytes)}
			if p.Backend != "" {
				opts = append(opts, sccsim.WithBackend(sccsim.Backend(p.Backend)))
			}
			got, err = sccsim.Do(ctx, sccsim.Workload(p.Workload), opts...)
		} else {
			p := sr.req.sweep
			got, err = sccsim.SweepCtx(ctx, sccsim.Workload(p.Workload), sccsim.WithScale(specScale(p.ScaleSpec)))
		}
		r.attempted++
		if err != nil {
			r.fail("re-deriving %s: %v", class, err)
			continue
		}
		want, err := json.Marshal(got)
		if err != nil || !bytes.Equal(want, sr.payload) {
			r.fail("%s: served result differs from the library's (%v)", class, err)
		}
	}
}

// scrape reads the server's numeric metrics.
func (s *serveMixed) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// probe times each layer directly on serve-mixed's own inputs: the cold
// traces (generated, compiled, stored and loaded), each app's 64 KB cold
// points (replayed directly and through sccsim.Do), and a hot point
// through the handler.
func (s *serveMixed) probe(ctx context.Context, r *run) error {
	progs := map[coldKey]*trace.Program{}
	var gen, compile time.Duration
	for _, k := range s.cold {
		procs := sccsim.DefaultConfig(k.ppc, probeSize).Procs()
		sp := r.rec.begin(r.root, "workload.generate")
		t0 := time.Now()
		prog, err := sccsim.GenerateTrace(k.app, procs, s.scale(k.seed))
		gen += time.Since(t0)
		r.rec.end(sp)
		if err != nil {
			return err
		}
		sp = r.rec.begin(r.root, "trace.compile")
		t0 = time.Now()
		_, err = trace.Compile(prog)
		compile += time.Since(t0)
		r.rec.end(sp)
		if err != nil {
			return err
		}
		progs[k] = prog
	}
	r.genMS = []float64{ms(gen)}
	r.compileMS = []float64{ms(compile)}

	var samples []sampleTrace
	var points []coldKey
	for _, k := range s.cold[:12] { // the first cold seed: every app and ppc
		points = append(points, k)
		if k.ppc == 1 {
			samples = append(samples, sampleTrace{k.app, progs[k]})
		}
	}
	if err := r.probeDisk(samples); err != nil {
		return err
	}
	if _, err := r.probeModel(samples, nil, 0); err != nil {
		return err
	}

	var replay time.Duration
	var refs uint64
	var overheads []float64
	for _, k := range points {
		cfg := sccsim.DefaultConfig(k.ppc, probeSize)
		sp := r.rec.begin(r.root, "sim.replay")
		t0 := time.Now()
		res, err := sim.Run(cfg, sim.Options{}, progs[k])
		d := time.Since(t0)
		r.rec.end(sp)
		if err != nil {
			return err
		}
		replay += d
		refs += res.Refs
		opts := []sccsim.Opt{sccsim.WithScale(s.scale(k.seed)), sccsim.WithPoint(k.ppc, probeSize), sccsim.WithParallelism(1)}
		if _, err := sccsim.Do(ctx, k.app, opts...); err != nil { // resolves the trace
			return err
		}
		sp = r.rec.begin(r.root, "explorer.point")
		t0 = time.Now()
		_, err = sccsim.Do(ctx, k.app, opts...)
		engine := time.Since(t0)
		r.rec.end(sp)
		if err != nil {
			return err
		}
		overheads = append(overheads, us(engine-d))
	}
	r.layer["sim.replay_ns_per_ref"] = float64(replay) / float64(refs)
	r.layer["explorer.point_overhead_us"] = stats.Median(overheads)
	if s.slots > 0 {
		r.layer["explorer.utilization"] = float64(s.busy) / float64(s.slots)
	}
	body, _ := json.Marshal(s.hotPoints[0]) // a PointRequest always marshals
	h, err := handlerProbe(r, s.srv, body)
	if err != nil {
		return err
	}
	r.layer["serve.handler_us"] = h
	return nil
}

// serveProbe times a result-cache hit through the serve layer's handler
// for one of a library workload's own design points.
func serveProbe(ctx context.Context, r *run, app sccsim.Workload, scale sccsim.Scale) (float64, error) {
	srv := serve.New(serve.Options{Parallelism: r.workers})
	defer srv.Shutdown(ctx)
	body, err := json.Marshal(serve.PointRequest{
		Workload: string(app), ScaleSpec: scaleSpec(scale), ProcsPerCluster: 1, SCCBytes: probeSize,
	})
	if err != nil {
		return 0, err
	}
	return handlerProbe(r, srv, body)
}

// handlerProbe posts a point request to h through ServeHTTP into a
// recorder, with no socket: the first call computes the point, the next
// 200 are result-cache hits. It returns their median in microseconds.
func handlerProbe(r *run, h http.Handler, body []byte) (float64, error) {
	var times []float64
	for i := 0; i <= 200; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/point", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		sp := r.rec.begin(r.root, "serve.handler")
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		d := time.Since(t0)
		r.rec.end(sp)
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("serve handler: HTTP %d: %.200s", rr.Code, rr.Body.Bytes())
		}
		if i > 0 {
			times = append(times, us(d))
		}
	}
	return stats.Median(times), nil
}

// outcome is one open-loop request's result.
type outcome struct {
	latency time.Duration // from when the request was due until it completed
	late    time.Duration // from when it was due until the generator sent it
	err     error
}

// openLoop sends request i at offset due[i] from the start, each from
// its own goroutine, whether or not earlier requests have completed, and
// waits for all of them. send returns when its request completed.
// Latency is charged from the due time, so time a request spends
// waiting behind a stalled one counts against it.
func openLoop(ctx context.Context, due []time.Duration, send func(i int) (time.Time, error)) []outcome {
	out := make([]outcome, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				for j := i; j < len(due); j++ {
					out[j].err = ctx.Err()
				}
				wg.Wait()
				return out
			}
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			sent := time.Now()
			done, err := send(i)
			out[i] = outcome{latency: done.Sub(at), late: sent.Sub(at), err: err}
		}(i, at)
	}
	wg.Wait()
	return out
}

// parallel calls fn(0..n-1) from the given number of workers, each
// taking its next index only when its previous call returned — as a
// closed loop of clients, or the engine's worker pool, does.
func parallel(ctx context.Context, n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
