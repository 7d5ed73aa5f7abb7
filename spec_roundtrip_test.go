package sccsim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestSpecRoundTripEveryField: the server-facing contract — a JSON
// document decoded into a Spec, converted to functional options and
// resolved, must produce the identical experiment configuration as
// composing those options by hand. The reflection sweep at the end
// forces this test to exercise *every* Spec field (a new field that is
// not added to the JSON document here fails the test), so the Spec
// bridge cannot silently drift from the options API.
func TestSpecRoundTripEveryField(t *testing.T) {
	const doc = `{
		"Scale": {
			"BarnesBodies": 128, "BarnesSteps": 2,
			"MP3DParticles": 500, "MP3DSteps": 1,
			"MultiprogRefs": 10000,
			"CholeskyGridW": 6, "CholeskyGridH": 6,
			"Seed": 7
		},
		"Sim": {"WriteBufferDepth": 2, "SwitchPenalty": 10},
		"Config": {"Clusters": 2, "ProcsPerCluster": 4, "SCCBytes": 65536, "LoadLatency": 3, "Assoc": 2},
		"ProcsPerCluster": 2,
		"SCCBytes": 32768,
		"Axes": {"assoc": 2, "repl": "random"},
		"Parallelism": 3,
		"TraceCacheDir": "/tmp/scc-trace-cache-test",
		"Verify": true,
		"Backend": "exact"
	}`
	var spec Spec
	if err := json.Unmarshal([]byte(doc), &spec); err != nil {
		t.Fatal(err)
	}

	// The bridge applies the Config-wins-over-point rule at conversion
	// time, so the hand-composed equivalent omits WithPoint when a full
	// Config is present.
	want, err := resolve([]Opt{
		WithScale(*spec.Scale),
		WithSimOptions(*spec.Sim),
		WithConfig(*spec.Config),
		WithAxes(Axes{Assoc: 2, Repl: ReplRandom}),
		WithParallelism(3),
		WithTraceCache("/tmp/scc-trace-cache-test"),
		WithVerify(),
		WithBackend(BackendExact),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolve(spec.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Spec-resolved config differs from hand-composed options:\n got %+v\nwant %+v", got, want)
	}
	// The Config-wins-over-point rule holds through the bridge.
	if got.cfg == nil || got.cfg.Clusters != 2 || got.cfg.Assoc != 2 {
		t.Errorf("Config did not win over the point fields: %+v", got.cfg)
	}

	// Point-only variant: without Config, ProcsPerCluster/SCCBytes flow
	// into the resolved point.
	pSpec := spec
	pSpec.Config = nil
	pGot, err := resolve(pSpec.Opts())
	if err != nil {
		t.Fatal(err)
	}
	pWant, err := resolve([]Opt{
		WithScale(*spec.Scale), WithSimOptions(*spec.Sim),
		WithPoint(2, 32*1024), WithAxes(Axes{Assoc: 2, Repl: ReplRandom}),
		WithParallelism(3),
		WithTraceCache("/tmp/scc-trace-cache-test"), WithVerify(),
		WithBackend(BackendExact),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pGot, pWant) {
		t.Errorf("point-only Spec differs from hand-composed options:\n got %+v\nwant %+v", pGot, pWant)
	}
	if pGot.ppc != 2 || pGot.scc != 32*1024 {
		t.Errorf("point fields did not flow through: ppc=%d scc=%d", pGot.ppc, pGot.scc)
	}

	// Analytic variant: the backend field must reach the resolved
	// config (the options above that require exact are dropped).
	aSpec := Spec{Scale: spec.Scale, ProcsPerCluster: 2, SCCBytes: 32768,
		Parallelism: 3, TraceCacheDir: "/tmp/scc-trace-cache-test", Backend: "analytic"}
	aGot, err := resolve(aSpec.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if aGot.backend != BackendAnalytic {
		t.Errorf("analytic spec resolved to backend %q", aGot.backend)
	}

	// Completeness: every Spec field must be non-zero in the document
	// above, so adding a field without wiring it here is caught.
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("Spec field %q is not exercised by this round-trip test; add it to the JSON document and the hand-composed options", v.Type().Field(i).Name)
		}
	}
}

// TestSpecValidate: table-driven validation hardening — unknown or
// contradictory data-borne specs fail with actionable messages, valid
// ones pass (the same check the HTTP service maps to 400s).
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // "" means valid
	}{
		{"zero spec", Spec{}, ""},
		{"exact", Spec{Backend: "exact"}, ""},
		{"analytic", Spec{Backend: "analytic"}, ""},
		{"unknown backend", Spec{Backend: "quantum"}, "unknown backend"},
		{"unknown backend lists valid values", Spec{Backend: "quantum"}, "[exact analytic]"},
		{"verify on analytic", Spec{Backend: "analytic", Verify: true}, "exact backend"},
		{"sim options on analytic", Spec{Backend: "analytic", Sim: &Options{}}, "exact backend"},
		{"verify on exact", Spec{Backend: "exact", Verify: true}, ""},
		{"assoc on analytic", Spec{Backend: "analytic", Axes: &Axes{Assoc: 4}}, ""},
		{"random repl on analytic", Spec{Backend: "analytic", Axes: &Axes{Repl: ReplRandom}}, "exact backend"},
		{"hierarchy on analytic", Spec{Backend: "analytic", Axes: &Axes{Hierarchy: HierarchyHybrid}}, "exact backend"},
		{"line bytes on analytic", Spec{Backend: "analytic", Axes: &Axes{LineBytes: 32}}, "exact backend"},
		{"bad axes", Spec{Axes: &Axes{Assoc: 3}}, "divisible"},
		{"hierarchy on exact", Spec{Axes: &Axes{Hierarchy: HierarchyPrivate}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
