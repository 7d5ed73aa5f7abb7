// Tests of the request path's edges: strict body framing, zero-valued
// optional objects, the trace store a job sees, and which job IDs the
// sweep status route answers for.

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// postJSON posts body to path and decodes the response into v (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url, path, body string, v any) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestTrailingBytesRejected: a body is exactly one JSON value. Bytes
// after it — garbage or a second object — are a 400 on every POST
// route, while trailing whitespace is fine.
func TestTrailingBytesRejected(t *testing.T) {
	s := New(Options{})
	s.runJob = func(ctx context.Context, j *job) error { return nil }
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := map[string]string{
		"/v1/sweep":  `{"workload":"multiprog","scale":"quick"}`,
		"/v1/point":  `{"workload":"multiprog","scale":"quick"}`,
		"/v1/search": `{"workload":"multiprog","scale":"quick","search":{}}`,
	}
	for path, body := range bodies {
		for _, tail := range []string{`garbage`, ` {"workload":"cholesky"}`, `}`, `[]`} {
			var eb errorBody
			if code := postJSON(t, ts.URL, path, body+tail, &eb); code != http.StatusBadRequest || eb.Error == "" {
				t.Errorf("%s with trailing %q: status %d (%q), want 400", path, tail, code, eb.Error)
			}
		}
		if code := postJSON(t, ts.URL, path, body+"\n \t\n", nil); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, want 200", path, code)
		}
	}
	if code := postJSON(t, ts.URL, "/v1/cluster/register", `{"url":"http://w:1"} {"url":"http://w:2"}`, nil); code != http.StatusBadRequest {
		t.Errorf("register with a second object: status %d, want 400", code)
	}
}

// TestZeroSimIsThePapersModel: an empty or all-zero sim object is the
// paper's model, the same experiment as no sim at all. The analytic
// backend accepts it and shares the plain request's cache entry, and an
// exact sweep with it still pairs with its analytic twin for the live
// cross-validation gauges.
func TestZeroSimIsThePapersModel(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const point = `{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":51},"backend":"analytic"`
	var first PointResponse
	if code := postJSON(t, ts.URL, "/v1/point", point+`,"sim":{}}`, &first); code != http.StatusOK {
		t.Fatalf(`analytic point with "sim":{}: status %d (%s), want 200`, code, first.Error)
	}
	for _, extra := range []string{`,"sim":{"verify":false}}`, `}`} {
		var again PointResponse
		if code := postJSON(t, ts.URL, "/v1/point", point+extra, &again); code != http.StatusOK || again.Cache != "hit" || again.ID != first.ID {
			t.Errorf("analytic point%s: status %d cache %q id %q, want a hit on %q", extra, code, again.Cache, again.ID, first.ID)
		}
	}

	const sweep = `{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":52}`
	if code := postJSON(t, ts.URL, "/v1/sweep", sweep+`,"backend":"analytic"}`, nil); code != http.StatusOK {
		t.Fatalf("analytic sweep: status %d", code)
	}
	if code := postJSON(t, ts.URL, "/v1/sweep", sweep+`,"sim":{}}`, nil); code != http.StatusOK {
		t.Fatalf(`exact sweep with "sim":{}: status %d`, code)
	}
	if got := s.reg.Counter("serve.crossval_pairs").Value(); got != 1 {
		t.Errorf(`serve.crossval_pairs = %d after an exact "sim":{} sweep joined its analytic twin, want 1`, got)
	}
}

// TestUnusableTraceCacheDir: a trace cache directory the server cannot
// open degrades to no cache, as the server logs — jobs still run
// instead of each trying the directory again and failing.
func TestUnusableTraceCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Options{TraceCacheDir: file}))
	defer ts.Close()
	var pr PointResponse
	code := postJSON(t, ts.URL, "/v1/point", `{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":53}}`, &pr)
	if code != http.StatusOK || pr.Point == nil {
		t.Fatalf("point with an unusable trace cache: status %d (%s), want 200 with a point", code, pr.Error)
	}
}

// TestSweepStatusIsForSweeps: GET /v1/sweep/{id} answers for sweep jobs
// only; a point or search job's ID is a 404 like an unknown one.
func TestSweepStatusIsForSweeps(t *testing.T) {
	s := New(Options{})
	s.runJob = func(ctx context.Context, j *job) error { return nil }
	ts := httptest.NewServer(s)
	defer ts.Close()

	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/sweep/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var sw SweepResponse
	postJSON(t, ts.URL, "/v1/sweep", `{"workload":"mp3d","scale":"quick"}`, &sw)
	if code := status(sw.ID); code != http.StatusOK {
		t.Errorf("sweep job %s: status %d, want 200", sw.ID, code)
	}
	var pt PointResponse
	postJSON(t, ts.URL, "/v1/point", `{"workload":"mp3d","scale":"quick"}`, &pt)
	var se SearchResponse
	postJSON(t, ts.URL, "/v1/search", `{"workload":"mp3d","scale":"quick"}`, &se)
	for _, id := range []string{pt.ID, se.ID} {
		if id == "" {
			t.Fatal("job not created")
		}
		if code := status(id); code != http.StatusNotFound {
			t.Errorf("non-sweep job %s: status %d, want 404", id, code)
		}
	}
}
