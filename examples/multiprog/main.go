// Multiprogramming study: reproduce the paper's compute-server analysis
// (Figures 5 and 6) — eight independent SPEC92-analogue processes
// round-robin scheduled on one cluster, showing how shared-cache
// interference degrades throughput and how larger SCCs recover it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"sccsim"
)

func main() {
	paper := flag.Bool("paper", false, "run at the full reference budget (slower)")
	flag.Parse()

	scale := sccsim.QuickScale()
	if *paper {
		scale = sccsim.PaperScale()
	}

	fmt.Printf("processes: %v\n\n", sccsim.MultiprogApps())

	grid, err := sccsim.SweepCtx(context.Background(), sccsim.Multiprog, sccsim.WithScale(scale))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(sccsim.Figure(grid, "Figure 5 — multiprogramming, one cluster"))
	fmt.Println(sccsim.SpeedupFigure(grid))

	// The paper's headline: the 8-processor cluster's execution time
	// improves by a large factor from the smallest to the largest SCC
	// because interference conflicts disappear.
	t4 := grid.At(4*1024, 8).Result.Cycles
	t512 := grid.At(512*1024, 8).Result.Cycles
	fmt.Printf("8 procs/cluster: 4 KB is %.1fx slower than 512 KB (paper: ~4.1x)\n",
		float64(t4)/float64(t512))
}
