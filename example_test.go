package sccsim_test

import (
	"context"
	"fmt"
	"log"

	"sccsim"
)

// ExampleDo simulates one design point and reads the result.
func ExampleDo() {
	pt, err := sccsim.Do(context.Background(), sccsim.BarnesHut,
		sccsim.WithPoint(2, 32*1024), sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pt.Config.ProcsPerCluster, "processors per cluster,",
		pt.Config.SCCBytes/1024, "KB SCC")
	fmt.Println("finished:", pt.Result.Cycles > 0)
	// Output:
	// 2 processors per cluster, 32 KB SCC
	// finished: true
}

// ExampleSweepCtx runs the full design space for one workload and
// reads the paper's Table 3 metric off the grid.
func ExampleSweepCtx() {
	grid, err := sccsim.SweepCtx(context.Background(), sccsim.MP3D,
		sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		log.Fatal(err)
	}
	// Self-relative speedup at a middle design point.
	fmt.Println("8 procs/cluster faster than 1:", grid.Speedup(64*1024, 8) > 1)
	// Output:
	// 8 procs/cluster faster than 1: true
}

// ExampleChipDesigns prices the Section 4 cluster implementations.
func ExampleChipDesigns() {
	designs := sccsim.ChipDesigns()
	fmt.Printf("1P chip: %.0f mm2\n", designs[1].ChipArea())
	fmt.Printf("2P chip: %.0f mm2 (load latency %d)\n",
		designs[2].ChipArea(), designs[2].LoadLatency)
	// Output:
	// 1P chip: 204 mm2
	// 2P chip: 279 mm2 (load latency 3)
}

// ExampleLoadLatencyFactor reads the Table 5 pipeline factors.
func ExampleLoadLatencyFactor() {
	fmt.Printf("%.2f\n", sccsim.LoadLatencyFactor(sccsim.Cholesky, 4))
	// Output:
	// 1.16
}

// ExampleGenerateTrace inspects a workload's reference stream without
// running the simulator.
func ExampleGenerateTrace() {
	prog, err := sccsim.GenerateTrace(sccsim.Cholesky, 4, sccsim.QuickScale())
	if err != nil {
		log.Fatal(err)
	}
	prof := sccsim.AnalyzeTrace(prog)
	fmt.Println("has references:", prof.RefTotal() > 0)
	fmt.Println("data is shared:", prof.SharedFrac() > 0)
	// Output:
	// has references: true
	// data is shared: true
}
