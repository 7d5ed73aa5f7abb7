// Cost/performance study: reproduce the paper's Section 5 — should the
// next chip hold one processor with a big cache or two processors with a
// smaller shared cache? (Tables 6 and 7, using the Section 4 area model
// and the Table 5 load-latency factors.)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"sccsim"
)

func main() {
	paper := flag.Bool("paper", false, "run at the paper's problem sizes (slower)")
	flag.Parse()

	scale := sccsim.QuickScale()
	if *paper {
		scale = sccsim.PaperScale()
	}

	fmt.Println(sccsim.RenderAreaReport())
	fmt.Println(sccsim.RenderTable5())

	var entries []*sccsim.CostPerfEntry
	for _, w := range sccsim.AllWorkloads {
		e, err := sccsim.BuildCostPerfEntryCtx(context.Background(), w, sccsim.WithScale(scale))
		if err != nil {
			log.Fatal(err)
		}
		entries = append(entries, e)
	}

	sc := sccsim.CompareSingleChip(entries)
	fmt.Println(sccsim.RenderTable6(sc))
	fmt.Println(sccsim.RenderTable7(sccsim.CompareMCM(entries)))

	fmt.Printf("conclusion: two processors with a 32 KB SCC are %.0f%% faster than one\n", 100*(sc.MeanSpeedup-1))
	fmt.Printf("processor with a 64 KB cache, on %.0f%% more silicon: cost/performance %+.0f%%.\n",
		100*(sc.AreaRatio-1), 100*sc.CostPerfGain)
}
