// Quickstart: simulate one design point — four clusters of two
// processors sharing a 32 KB cluster cache — running Barnes-Hut, and
// print where the time goes.
package main

import (
	"context"
	"fmt"
	"log"

	"sccsim"
)

func main() {
	// A reduced problem size so this runs in a couple of seconds; use
	// sccsim.PaperScale() for the full 1024-body configuration.
	scale := sccsim.QuickScale()

	pt, err := sccsim.Do(context.Background(), sccsim.BarnesHut,
		sccsim.WithPoint(2 /* procs per cluster */, 32*1024), sccsim.WithScale(scale))
	if err != nil {
		log.Fatal(err)
	}
	res := pt.Result

	fmt.Printf("config            %v\n", pt.Config)
	fmt.Printf("execution time    %d cycles\n", res.Cycles)
	fmt.Printf("references        %d\n", res.Refs)
	fmt.Printf("SCC read miss     %.2f%%\n", 100*res.ReadMissRate())
	fmt.Printf("invalidations     %d\n", res.Snoop.Invalidations)
	fmt.Printf("read-miss stall   %d cycles (all processors)\n", res.TotalReadStall())
	fmt.Printf("bank-wait stall   %d cycles (all processors)\n", res.TotalBankStall())

	// The load latency of this implementation costs extra pipeline time
	// on top of the memory-system simulation (the paper's Table 5).
	factor := sccsim.LoadLatencyFactor(sccsim.BarnesHut, pt.Config.LoadLatency)
	fmt.Printf("latency-adjusted  %.0f cycles (x%.2f for %d-cycle loads)\n",
		float64(res.Cycles)*factor, factor, pt.Config.LoadLatency)
}
