// Cluster-organization study: the paper's Section 2.1 design argument,
// measured. Three ways to organize four clusters of processors:
//
//  1. shared cluster caches (the paper's SCC architecture),
//  2. private per-processor caches with a fast intra-cluster bus
//     (the alternative the paper describes and argues against),
//  3. a conventional flat snoopy bus (every cache snoops every write).
//
// The shared cache keeps a single copy of intra-cluster shared data —
// no coherence traffic inside a cluster, and the whole capacity is
// available to any one processor. Private caches duplicate shared lines
// and ping-pong written ones; the flat machine additionally puts every
// processor's invalidations on one bus.
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

	const ppc, scc = 8, 128 * 1024 // the 32-processor MCM design point
	ctx := context.Background()
	// The flat machine: 32 single-processor "clusters", each cache a
	// processor's share of an SCC, all on the one snoopy bus.
	flatCfg := sccsim.Config{Clusters: 4 * ppc, ProcsPerCluster: 1, SCCBytes: scc / ppc, LoadLatency: 2, Assoc: 1}

	for _, w := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D} {
		run := func(opts ...sccsim.Opt) *sccsim.Point {
			pt, err := sccsim.Do(ctx, w, append(opts, sccsim.WithScale(scale))...)
			if err != nil {
				log.Fatal(err)
			}
			return pt
		}
		shared := run(sccsim.WithPoint(ppc, scc))
		private := run(sccsim.WithPoint(ppc, scc), sccsim.WithAxes(sccsim.Axes{Hierarchy: sccsim.HierarchyPrivate}))
		flat := run(sccsim.WithConfig(flatCfg))

		fmt.Printf("%s, 32 processors, %d KB cache per cluster:\n", w, scc/1024)
		show := func(name string, p *sccsim.Point) {
			fmt.Printf("  %-28s %12d cycles  %8d invalidations  %.2f%% read miss\n",
				name, p.Result.Cycles, p.Result.Snoop.Invalidations, 100*p.Result.ReadMissRate())
		}
		show("shared cluster caches", shared)
		show("private caches per processor", private)
		show("flat snoopy bus", flat)
		fmt.Printf("  invalidation ratio: private/shared = %.1fx, flat/shared = %.1fx\n\n",
			float64(private.Result.Snoop.Invalidations)/float64(max(1, shared.Result.Snoop.Invalidations)),
			float64(flat.Result.Snoop.Invalidations)/float64(max(1, shared.Result.Snoop.Invalidations)))
	}
}
