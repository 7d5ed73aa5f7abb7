// N-body study: reproduce the paper's Barnes-Hut analysis (Figure 2,
// Tables 3 and 4) — how shared cluster caches turn neighbouring
// processors' tree traversals into mutual prefetching, and where
// destructive interference takes over.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"sccsim"
)

func main() {
	paper := flag.Bool("paper", false, "run at the paper's 1024-body scale (slower)")
	flag.Parse()

	scale := sccsim.QuickScale()
	if *paper {
		scale = sccsim.PaperScale()
	}

	grid, err := sccsim.SweepCtx(context.Background(), sccsim.BarnesHut, sccsim.WithScale(scale))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(sccsim.Figure(grid, "Figure 2 — Barnes-Hut"))
	fmt.Println(sccsim.SpeedupTable(grid))
	fmt.Println(sccsim.MissRateTable(grid))
	fmt.Println(sccsim.InvalidationTable(grid))

	// The paper's two Barnes-Hut observations, extracted from the grid:
	s4 := grid.Speedup(4*1024, 8)
	s512 := grid.Speedup(512*1024, 8)
	fmt.Printf("8 procs/cluster speedup: %.1fx at 4 KB vs %.1fx at 512 KB\n", s4, s512)
	m1 := grid.At(8*1024, 1).Result.ReadMissRate()
	m8 := grid.At(8*1024, 8).Result.ReadMissRate()
	fmt.Printf("8 KB SCC read miss rate: %.1f%% at 1 proc -> %.1f%% at 8 procs (interference)\n",
		100*m1, 100*m8)
}
