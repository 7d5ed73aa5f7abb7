package explorer

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sccsim/internal/sysmodel"
)

// TestEstimatePointsMatchesSerial: building the distinct processor
// counts' profiles concurrently, from cold caches, must give exactly
// the estimates of resolving each spec's profile one after another —
// for a parallel workload and the scheduled multiprogramming one, with
// the processor counts interleaved and repeated across the specs.
func TestEstimatePointsMatchesSerial(t *testing.T) {
	var specs []PointSpec
	for _, size := range sysmodel.SCCSizes[:3] {
		for _, ppc := range []int{8, 1, 4, 2} {
			specs = append(specs, PointSpec{PPC: ppc, SCCBytes: size})
		}
	}
	s := QuickScale()
	for _, w := range []Workload{MP3D, Multiprog} {
		ResetTraceCache()
		want := make([]uint64, len(specs))
		for i, spec := range specs {
			prof, err := profileFor(w, PointConfig(w, spec.PPC, spec.SCCBytes, sysmodel.Axes{}), s, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := prof.Curve().At(spec.SCCBytes)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = pt.EstCycles
		}
		ResetTraceCache()
		got, err := EstimatePoints(context.Background(), w, specs, s, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concurrent estimates %v, serial %v", w, got, want)
		}
	}
}

// TestEstimatePointsCancelled: a done context stops the estimate with
// the context's error.
func TestEstimatePointsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []PointSpec{{PPC: 1, SCCBytes: sysmodel.SCCSizes[0]}, {PPC: 2, SCCBytes: sysmodel.SCCSizes[0]}}
	if _, err := EstimatePoints(ctx, MP3D, specs, QuickScale(), EngineOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimatePoints on a cancelled context returned %v, want context.Canceled", err)
	}
}
