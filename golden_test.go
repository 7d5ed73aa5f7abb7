package sccsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sccsim"
	"sccsim/internal/mem"
)

// TestGoldenQuickScaleResults pins one quick-scale point of each
// workload to exact values, and runs each point twice so that a replay
// from the engine's trace cache must match a cold run. A failure means a
// behavioural change in the simulator or a workload generator: if it is
// intentional (a workload retuned, say), update the numbers and note the
// change; if not, it is a regression. TestResultDigests holds the same
// points inside its sweep digests; these print which number moved.
func TestGoldenQuickScaleResults(t *testing.T) {
	type outcome struct {
		cycles, refs, inval uint64
	}
	cases := []struct {
		w        sccsim.Workload
		ppc, scc int
		want     outcome
	}{
		{sccsim.BarnesHut, 2, 32 * 1024, outcome{325_087, 488_423, 3_037}},
		{sccsim.MP3D, 4, 64 * 1024, outcome{113_878, 86_416, 1_943}},
		{sccsim.Cholesky, 8, 128 * 1024, outcome{828_872, 226_680, 12_109}},
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			pt, err := runPoint(c.w, c.ppc, c.scc, sccsim.QuickScale())
			if err != nil {
				t.Fatal(err)
			}
			got := outcome{pt.Result.Cycles, pt.Result.Refs, pt.Result.Snoop.Invalidations}
			if got != c.want {
				t.Errorf("%s %dP/%dKB round %d: got %+v, want %+v",
					c.w, c.ppc, c.scc/1024, round, got, c.want)
			}
		}
	}
}

// TestGoldenPinnedValues pins Barnes-Hut 2P/32KB at quick scale to exact
// cycles, references and shared-cache read counts, so that an
// unintentional change to any layer (allocator, generator, cache,
// coherence, timing) names the number it moved. Update deliberately
// when retuning.
func TestGoldenPinnedValues(t *testing.T) {
	pt, err := runPoint(sccsim.BarnesHut, 2, 32*1024, sccsim.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	scc := pt.Result.AggregateSCC()
	got := [4]uint64{pt.Result.Cycles, pt.Result.Refs, scc.Accesses[mem.Read], scc.Misses[mem.Read]}
	want := [4]uint64{325_087, 488_423, 363_531, 11_525}
	if got != want {
		t.Errorf("Barnes 2P/32KB quick [cycles refs reads read-misses] = %v, want %v", got, want)
	}
}

// TestGoldenDefaultAxesByteIdentical pins the widening contract of the
// architecture axes: a zero Axes overlay — passed as an option or not
// at all — produces the identical grid, byte for byte. A failure means
// the axes stopped being a pure overlay and have started perturbing the
// paper-default configurations.
func TestGoldenDefaultAxesByteIdentical(t *testing.T) {
	ctx := context.Background()
	base, err := sccsim.SweepCtx(ctx, sccsim.MP3D, sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][]sccsim.Opt{
		"zero WithAxes": {sccsim.WithScale(sccsim.QuickScale()), sccsim.WithAxes(sccsim.Axes{})},
	}
	for name, opts := range variants {
		g, err := sccsim.SweepCtx(ctx, sccsim.MP3D, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: grid differs from the default-axes sweep", name)
		}
		if sccsim.GridCSV(g) != sccsim.GridCSV(base) {
			t.Errorf("%s: CSV rendering differs from the default-axes sweep", name)
		}
	}
}
