// Tests of the request path's data model: every body resolves to one
// experiment, every leaf of the experiment reaches its content key, and
// nothing outside it does.

package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// newBody returns an empty body of the route that runs kind.
func newBody(kind jobKind) request {
	switch kind {
	case jobSweep:
		return &SweepRequest{}
	case jobPoint:
		return &PointRequest{}
	default:
		return &SearchRequest{}
	}
}

// resolveBody runs body through its route's decode and resolve steps.
func resolveBody(t *testing.T, kind jobKind, body string) experiment {
	t.Helper()
	req := newBody(kind)
	if err := decodeStrict(strings.NewReader(body), req); err != nil {
		t.Fatalf("%s body %s: %v", kind, body, err)
	}
	e, err := req.resolve()
	if err != nil {
		t.Fatalf("%s body %s: %v", kind, body, err)
	}
	return e
}

// bodyOf re-encodes an experiment as its route's body, with the scale
// spelled out. Point bodies go through the cluster client's encoder.
func bodyOf(e experiment) request {
	scale := e.Scale
	switch e.Kind {
	case jobSweep:
		return &SweepRequest{Workload: string(e.Workload), Backend: string(e.Backend),
			ScaleSpec: &scale, Sim: e.Sim, Axes: e.Axes}
	case jobPoint:
		req := pointRequest(e, 0)
		return &req
	default:
		return &SearchRequest{Workload: string(e.Workload), ScaleSpec: &scale, Search: *e.Search}
	}
}

// leafPaths lists the field-index paths of every leaf under t,
// descending into structs and pointers to structs.
func leafPaths(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		ft := t.Field(i).Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, leafPaths(ft, path)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

// setLeaf sets the leaf at path to a non-zero value, allocating the
// pointers on the way, and returns the leaf's dotted name.
func setLeaf(t *testing.T, v reflect.Value, path []int) string {
	var name []string
	for _, i := range path {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		name = append(name, v.Type().Field(i).Name)
		v = v.Field(i)
	}
	setNonZero(t, v)
	return strings.Join(name, ".")
}

// setNonZero sets a scalar to a non-zero value, or a slice to one
// element (non-zero itself when it is a scalar).
func setNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x1")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		if k := v.Index(0).Kind(); k != reflect.Struct && k != reflect.Slice {
			setNonZero(t, v.Index(0))
		}
	default:
		t.Fatalf("no non-zero value for a %s leaf", v.Type())
	}
}

// TestExperimentKey pins the content-key contract. Every leaf of the
// experiment changes the key, each to a key of its own; the serving
// knobs are not part of it; and absent, empty and all-zero sim and axes
// are one experiment.
func TestExperimentKey(t *testing.T) {
	t.Run("every_leaf", func(t *testing.T) {
		seen := map[string]string{experiment{}.key(): "the zero experiment"}
		paths := leafPaths(reflect.TypeOf(experiment{}), nil)
		for _, path := range paths {
			var e experiment
			name := setLeaf(t, reflect.ValueOf(&e).Elem(), path)
			k := e.key()
			if prev, dup := seen[k]; dup {
				t.Errorf("setting %s gives the key of %s", name, prev)
			}
			seen[k] = name
		}
		// The walk reached into scale, sim, axes and search (and the
		// search's own space and axes), not just the top level.
		for _, want := range []string{"Scale.Seed", "Sim.Verify", "Axes.L1Bytes",
			"Search.Space.SCCBytesStep", "Search.Axes.Repl", "Search.Constraints"} {
			found := false
			for _, name := range seen {
				found = found || name == want
			}
			if !found {
				t.Errorf("leaf %s not exercised (%d leaves)", want, len(paths))
			}
		}
	})

	t.Run("serving_knobs", func(t *testing.T) {
		names := map[string]bool{}
		et := reflect.TypeOf(experiment{})
		for i := 0; i < et.NumField(); i++ {
			tag, _, _ := strings.Cut(et.Field(i).Tag.Get("json"), ",")
			names[tag] = true
		}
		for _, knob := range []string{"parallelism", "timeout_ms", "wait", "stream"} {
			if names[knob] {
				t.Errorf("serving knob %q is part of the experiment", knob)
			}
		}
		cases := map[jobKind][]string{
			jobSweep:  {`"parallelism":3`, `"timeout_ms":50`, `"wait":false`, `"stream":true`},
			jobPoint:  {`"timeout_ms":50`},
			jobSearch: {`"parallelism":3`, `"timeout_ms":50`},
		}
		for kind, knobs := range cases {
			base := resolveBody(t, kind, `{"workload":"mp3d","scale":"quick"}`).key()
			for _, knob := range knobs {
				if k := resolveBody(t, kind, `{"workload":"mp3d","scale":"quick",`+knob+`}`).key(); k != base {
					t.Errorf("%s: %s changed the key", kind, knob)
				}
			}
		}
	})

	t.Run("zero_objects", func(t *testing.T) {
		for _, kind := range []jobKind{jobSweep, jobPoint} {
			base := resolveBody(t, kind, `{"workload":"mp3d","scale":"quick"}`).key()
			for _, extra := range []string{
				`"sim":{}`, `"sim":{"verify":false}`, `"sim":{"write_buffer_depth":0,"warmup_refs":0}`,
				`"axes":{}`, `"axes":{"assoc":0,"repl":"","hierarchy":""}`, `"sim":{},"axes":{}`,
			} {
				if k := resolveBody(t, kind, `{"workload":"mp3d","scale":"quick",`+extra+`}`).key(); k != base {
					t.Errorf("%s: %s changed the key", kind, extra)
				}
			}
		}
		base := resolveBody(t, jobSearch, `{"workload":"mp3d","search":{}}`).key()
		for _, body := range []string{`{"workload":"mp3d"}`, `{"workload":"mp3d","search":{"axes":{}}}`,
			`{"workload":"mp3d","search":{"axes":{"assoc":0}}}`} {
			if k := resolveBody(t, jobSearch, body).key(); k != base {
				t.Errorf("search body %s changed the key", body)
			}
		}
	})
}

// TestAxesKeyStability pins the content-key contract of the axes:
// requests without axes, or with an explicitly zero overlay, keep the
// key of the paper's grid, while any non-default axis yields a distinct
// key, so axis variants never coalesce with the paper grid or with each
// other.
func TestAxesKeyStability(t *testing.T) {
	const sweep = `{"workload":"mp3d","scale":"quick"`
	const point = `{"workload":"mp3d","scale":"quick","procs_per_cluster":2,"scc_bytes":32768`
	for kind, body := range map[jobKind]string{jobSweep: sweep, jobPoint: point} {
		if resolveBody(t, kind, body+`,"axes":{}}`).key() != resolveBody(t, kind, body+`}`).key() {
			t.Errorf("zero axes changed the %s key", kind)
		}
	}
	seen := map[string]string{resolveBody(t, jobSweep, sweep+`}`).key(): "default"}
	for _, axes := range []string{
		`{"assoc":4}`, `{"assoc":4,"repl":"random"}`, `{"line_bytes":32}`,
		`{"hierarchy":"private"}`, `{"hierarchy":"hybrid","l1_bytes":8192}`,
	} {
		k := resolveBody(t, jobSweep, sweep+`,"axes":`+axes+`}`).key()
		if prev, dup := seen[k]; dup {
			t.Errorf("axes %s collide with %s", axes, prev)
		}
		seen[k] = axes
	}
	if resolveBody(t, jobPoint, point+`,"axes":{"assoc":2}}`).key() == resolveBody(t, jobPoint, point+`}`).key() {
		t.Error("assoc=2 did not change the point key")
	}
}

// TestAxesAnalyticOK pins the twin-key gate: a sweep has a
// cross-validation twin exactly when the other backend could run it,
// so only axes the analytic model can run (and no simulator tuning)
// admit one.
func TestAxesAnalyticOK(t *testing.T) {
	cases := []struct {
		extra string
		twin  bool
	}{
		{``, true},
		{`,"axes":{}`, true},
		{`,"axes":{"assoc":4}`, true},
		{`,"sim":{}`, true},
		{`,"axes":{"repl":"random"}`, false},
		{`,"axes":{"line_bytes":32}`, false},
		{`,"axes":{"hierarchy":"private"}`, false},
		{`,"sim":{"verify":true}`, false},
		{`,"sim":{"write_buffer_depth":2}`, false},
	}
	for _, tc := range cases {
		e := resolveBody(t, jobSweep, `{"workload":"mp3d","scale":"quick"`+tc.extra+`}`)
		if got := e.twinKey() != ""; got != tc.twin {
			t.Errorf("sweep%s: has twin %t, want %t", tc.extra, got, tc.twin)
		}
	}
	// The twin is the other backend's request, and back again.
	exact := resolveBody(t, jobSweep, `{"workload":"mp3d","scale":"quick"}`)
	analytic := resolveBody(t, jobSweep, `{"workload":"mp3d","scale":"quick","backend":"analytic"}`)
	if exact.twinKey() != analytic.key() || analytic.twinKey() != exact.key() {
		t.Error("exact and analytic sweeps of one experiment are not each other's twin")
	}
	if p := resolveBody(t, jobPoint, `{"workload":"mp3d","scale":"quick"}`); p.twinKey() != "" {
		t.Error("a point job has a twin")
	}
}

// apiExamples are the request bodies docs/API.md shows, plus one of
// each optional object: the fuzz corpus seeds.
var apiExamples = []string{
	`{"workload":"barnes-hut","scale":"quick"}`,
	`{"workload":"mp3d","scale":"quick","wait":false}`,
	`{"workload":"cholesky","scale":"quick","stream":true}`,
	`{"workload":"multiprog","scale":"quick","procs_per_cluster":4,"scc_bytes":131072}`,
	`{"workload":"mp3d","backend":"analytic","axes":{"hierarchy":"private"}}`,
	`{"workload":"mp3d","scale":"quick","backend":"analytic","sim":{}}`,
	`{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":21},"sim":{"write_buffer_depth":2,"verify":true},"axes":{"assoc":4,"repl":"random"},"timeout_ms":50}`,
	`{"workload":"barnes-hut","scale":"quick","search":{"space":{"scc_bytes_min":4096,"scc_bytes_max":524288,"scc_bytes_step":4096},"strategy":"adaptive","budget":64}}`,
	`{"workload":"mp3d","seed":3,"search":{"space":{"procs_per_cluster":[1,2]},"objectives":["cycles","cost_perf"],"constraints":[{"metric":"area_mm2","max":1000}],"axes":{"assoc":2},"margin":0.25}}`,
}

// FuzzResolveRequest sends arbitrary bytes through each route's decode
// and resolve steps. Nothing may panic, and an accepted body's
// experiment, re-encoded as that route's body, must resolve to the same
// key — the property the cluster client relies on for points.
func FuzzResolveRequest(f *testing.F) {
	for _, body := range apiExamples {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []jobKind{jobSweep, jobPoint, jobSearch} {
			req := newBody(kind)
			if decodeStrict(bytes.NewReader(body), req) != nil {
				continue
			}
			e, err := req.resolve()
			if err != nil || e.validate() != nil {
				continue
			}
			raw, err := json.Marshal(bodyOf(e))
			if err != nil {
				t.Fatalf("%s: re-encoding %+v: %v", kind, e, err)
			}
			again := newBody(kind)
			if err := decodeStrict(bytes.NewReader(raw), again); err != nil {
				t.Fatalf("%s: re-encoded body %s does not decode: %v", kind, raw, err)
			}
			e2, err := again.resolve()
			if err != nil {
				t.Fatalf("%s: re-encoded body %s does not resolve: %v", kind, raw, err)
			}
			if e2.key() != e.key() {
				t.Fatalf("%s: body %s and its re-encoding %s have different keys", kind, body, raw)
			}
		}
	})
}
