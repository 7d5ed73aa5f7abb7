package sim_test

import (
	"sync"
	"testing"

	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/workload/barnes"
)

// TestRunSharedProgramConcurrent enforces the package's concurrency
// contract: Run never mutates its trace.Program, so many goroutines may
// replay one shared program at once and every run returns identical
// results. Run it with -race (make race-obs, part of make check) to
// catch any write that sneaks into the shared trace.
func TestRunSharedProgramConcurrent(t *testing.T) {
	prog, err := barnes.Generate(barnes.Params{NBodies: 128, Steps: 1, Procs: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sysmodel.Default(2, 32*1024) // 4 clusters x 2 = the trace's 8 procs

	const goroutines = 8
	results := make([]*sim.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sim.Run(cfg, sim.Options{}, prog)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	base := results[0]
	if base.Cycles == 0 || base.Refs == 0 {
		t.Fatalf("empty result: %+v", base)
	}
	for i, r := range results[1:] {
		if r.Cycles != base.Cycles || r.Refs != base.Refs ||
			r.Snoop.Invalidations != base.Snoop.Invalidations {
			t.Errorf("goroutine %d diverged: cycles %d refs %d inval %d, want %d/%d/%d",
				i+1, r.Cycles, r.Refs, r.Snoop.Invalidations,
				base.Cycles, base.Refs, base.Snoop.Invalidations)
		}
	}
}
