// Backend plumbing through the HTTP API: request validation maps every
// malformed or contradictory spec to a 400 whose message names the
// valid values, the backend reaches the engine and is echoed in every
// response shape, and exact and analytic requests never share content
// keys.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sccsim"
)

// TestLegacyReplayRejected: the retired legacy_replay simulator option
// is an unknown field, so both run endpoints reject it with a 400 that
// names it instead of silently running the default experiment.
func TestLegacyReplayRejected(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, path := range []string{"/v1/sweep", "/v1/point"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"sim":{"legacy_replay":true}}`))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, "legacy_replay") {
			t.Errorf("%s: status %d, error %q (%v); want a 400 naming legacy_replay", path, resp.StatusCode, eb.Error, err)
		}
	}
}

// TestRequestValidation400s: the decode-time boundary for both POST
// endpoints — every rejection is a 400 (never a 500) with an error
// message actionable enough to fix the request from, i.e. one that
// lists the valid values.
func TestRequestValidation400s(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want []string // substrings of the error message
	}{
		{"unknown workload", `{"workload":"fft"}`,
			[]string{"unknown workload", "barnes-hut", "multiprog"}},
		{"unknown backend", `{"workload":"mp3d","backend":"simulate"}`,
			[]string{"unknown backend", "[exact analytic]"}},
		{"unknown scale", `{"workload":"mp3d","scale":"huge"}`,
			[]string{"unknown scale", "paper", "quick"}},
		{"verify on analytic", `{"workload":"mp3d","backend":"analytic","sim":{"verify":true}}`,
			[]string{"exact backend"}},
		{"sim options on analytic", `{"workload":"mp3d","backend":"analytic","sim":{"write_buffer_depth":2}}`,
			[]string{"exact backend"}},
	}
	for _, path := range []string{"/v1/sweep", "/v1/point"} {
		for _, c := range cases {
			t.Run(path+"/"+c.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", resp.StatusCode)
				}
				var eb errorBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
					t.Fatal(err)
				}
				for _, want := range c.want {
					if !strings.Contains(eb.Error, want) {
						t.Errorf("error %q does not mention %q", eb.Error, want)
					}
				}
			})
		}
	}
}

// TestPointBeyondSimulatorLimits400: a point whose machine the
// simulator cannot run is refused at admission with a 400 naming the
// limit, on either backend, and the server stays up. 4 x 128 = 512
// processors once crashed the server from inside replay; 12 banks per
// SCC failed mid-run as a 500.
func TestPointBeyondSimulatorLimits400(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, c := range []struct{ body, want string }{
		{`{"workload":"mp3d","scale":"quick","procs_per_cluster":128}`, "512 processors"},
		{`{"workload":"mp3d","scale":"quick","procs_per_cluster":128,"backend":"analytic"}`, "512 processors"},
		{`{"workload":"mp3d","scale":"quick","procs_per_cluster":3}`, "not a power of two"},
		{`{"workload":"mp3d","scale":"quick","procs_per_cluster":64,"scc_bytes":1024}`, "fewer lines than"},
	} {
		var eb errorBody
		if code := postJSON(t, ts.URL, "/v1/point", c.body, &eb); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.body, code)
		} else if !strings.Contains(eb.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.body, eb.Error, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d after refused points", resp.StatusCode)
	}
}

// TestBackendEndToEnd: the backend field reaches the engine (the
// analytic grid comes back populated and stamped), is echoed in sweep
// and point responses (including the "exact" default the client never
// spelled out), and keeps exact and analytic results apart in the
// content key — same experiment, two executions, two cache entries.
func TestBackendEndToEnd(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)

	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	doSweep := func(backendField string) *SweepResponse {
		t.Helper()
		body := fmt.Sprintf(`{"workload":"multiprog","scale_spec":{"multiprog_refs":6100,"seed":21}%s}`, backendField)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		var env SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return &env
	}

	exact := doSweep("")
	if exact.Backend != "exact" {
		t.Errorf("default sweep backend echoed as %q, want exact", exact.Backend)
	}
	analytic := doSweep(`,"backend":"analytic"`)
	if analytic.Backend != "analytic" {
		t.Errorf("analytic sweep backend echoed as %q", analytic.Backend)
	}
	if analytic.Grid == nil || len(analytic.Grid.Points) == 0 {
		t.Fatal("analytic sweep returned no grid")
	}
	if analytic.ID == exact.ID {
		t.Error("exact and analytic sweeps shared a job — backend is missing from the content key")
	}
	if got := s.reg.Counter("serve.jobs_done").Value(); got != 2 {
		t.Errorf("serve.jobs_done = %d, want 2 (one per backend)", got)
	}
	// Both grids are cached independently: re-posting each is a hit.
	if again := doSweep(`,"backend":"analytic"`); again.Cache != "hit" || again.ID != analytic.ID {
		t.Errorf("analytic re-post: cache %q id %q, want hit on %q", again.Cache, again.ID, analytic.ID)
	}
	if again := doSweep(""); again.Cache != "hit" || again.ID != exact.ID {
		t.Errorf("exact re-post: cache %q id %q, want hit on %q", again.Cache, again.ID, exact.ID)
	}
	// The two backends really did run different engines: cycle counts
	// are estimates on one side and measurements on the other.
	if analytic.Report == nil || analytic.Report.Backend != sccsim.BackendAnalytic {
		t.Errorf("analytic sweep report = %+v, want analytic backend stamp", analytic.Report)
	}

	// Point endpoint: same echo and execution path.
	presp, err := http.Post(ts.URL+"/v1/point", "application/json", strings.NewReader(
		`{"workload":"multiprog","scale_spec":{"multiprog_refs":6100,"seed":21},"backend":"analytic","procs_per_cluster":2,"scc_bytes":32768}`))
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("point status %d", presp.StatusCode)
	}
	var penv PointResponse
	if err := json.NewDecoder(presp.Body).Decode(&penv); err != nil {
		t.Fatal(err)
	}
	if penv.Backend != "analytic" || penv.Point == nil {
		t.Errorf("point response backend %q point %v", penv.Backend, penv.Point != nil)
	}
	if penv.Point.Result.Cycles == 0 {
		t.Error("analytic point has zero cycles")
	}
}
