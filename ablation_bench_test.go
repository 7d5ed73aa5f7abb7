// Ablation benchmarks: the design choices DESIGN.md calls out, measured.
// Each benchmark varies one mechanism of the architecture or simulator
// and prints the effect (run with -v / look at stdout on the final
// iteration). These are not paper experiments; they quantify why the
// paper's design decisions matter.
package sccsim_test

import (
	"context"
	"fmt"
	"testing"

	"sccsim"
)

// BenchmarkAblationSharedVsPrivate compares the paper's shared cluster
// cache against the Section 2.1 alternative (private per-processor
// caches with a fast intra-cluster bus) and a flat snoopy machine, at
// the 32-processor design point.
func BenchmarkAblationSharedVsPrivate(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := ""
		for _, w := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D, sccsim.Cholesky} {
			shared, err := runPoint(w, 8, 128*1024, scale)
			if err != nil {
				b.Fatal(err)
			}
			private, err := runPrivate(w, 8, 128*1024, scale)
			if err != nil {
				b.Fatal(err)
			}
			flat, err := runFlat(w, 32, 16*1024, scale)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("%-10s shared %d cy / %d inv; private %d cy / %d inv; flat %d cy / %d inv\n",
				w, shared.Result.Cycles, shared.Result.Snoop.Invalidations,
				private.Result.Cycles, private.Result.Snoop.Invalidations,
				flat.Result.Cycles, flat.Result.Snoop.Invalidations)
		}
		show(b, i, out)
	}
}

// BenchmarkAblationWriteBuffer varies the cluster write-buffer depth on
// MP3D (the most write-intensive workload).
func BenchmarkAblationWriteBuffer(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "MP3D, 4x4P/64KB, write-buffer depth sweep:\n"
		for _, depth := range []int{1, 2, 4, 8, -1} {
			g, err := sccsim.SweepCtx(context.Background(), sccsim.MP3D, sccsim.WithScale(scale),
				sccsim.WithSimOptions(sccsim.Options{WriteBufferDepth: depth}))
			if err != nil {
				b.Fatal(err)
			}
			label := fmt.Sprintf("%d", depth)
			if depth < 0 {
				label = "inf"
			}
			pt := g.At(64*1024, 4)
			out += fmt.Sprintf("  depth %-3s  %12d cycles  write-stall %d\n",
				label, pt.Result.Cycles, sumU64(pt.Result.WriteStall))
		}
		show(b, i, out)
	}
}

// BenchmarkAblationBusOccupancy enables bus-bandwidth contention (the
// paper models pure latency) and shows where queueing would bite.
func BenchmarkAblationBusOccupancy(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "Barnes-Hut, 8 procs/cluster, bus-occupancy sweep (cycles per transaction):\n"
		for _, occ := range []int{0, 2, 4, 8, 16} {
			pt, err := runWithOptions(sccsim.BarnesHut, 8, 32*1024, scale,
				sccsim.Options{BusOccupancy: occ})
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  occupancy %2d  %12d cycles  bus-wait %d\n",
				occ, pt.Result.Cycles, pt.Result.Snoop.BusWaitCycles)
		}
		show(b, i, out)
	}
}

// BenchmarkAblationAssociativity varies SCC associativity (the paper
// uses direct-mapped caches).
func BenchmarkAblationAssociativity(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "Barnes-Hut, 4 clusters x 8P/32KB, associativity sweep:\n"
		for _, assoc := range []int{1, 2, 4} {
			pt, err := runAssoc(sccsim.BarnesHut, 8, 32*1024, assoc, scale)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  %d-way  %12d cycles  %.2f%% read miss\n",
				assoc, pt.Result.Cycles, 100*pt.Result.ReadMissRate())
		}
		show(b, i, out)
	}
}

// BenchmarkAblationSupernodeWidth varies the Cholesky supernode cap,
// trading schedule parallelism against update locality.
func BenchmarkAblationSupernodeWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := "Cholesky schedule vs supernode width cap (32 processors):\n"
		for _, width := range []int{2, 4, 8, 16, 32} {
			sp, ops := scheduleStats(b, width)
			out += fmt.Sprintf("  width <= %-2d  achieved concurrency %.2fx  (%d ops)\n", width, sp, ops)
		}
		show(b, i, out)
	}
}

// BenchmarkExtensionFrontier prices the whole design space with the
// generalized Section 4 rules and reports the cost/performance-optimal
// configuration per workload.
func BenchmarkExtensionFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := ""
		for _, w := range []sccsim.Workload{sccsim.BarnesHut, sccsim.MP3D} {
			g := sweep(b, w)
			pts := sccsim.Frontier(g)
			out += sccsim.RenderFrontier(w, pts) + "\n"
		}
		show(b, i, out)
	}
}

// BenchmarkAblationMemoryBanks replaces the paper's flat 100-cycle
// memory with line-interleaved DRAM banks and shows when memory
// queueing would matter.
func BenchmarkAblationMemoryBanks(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "Barnes-Hut, 8 procs/cluster, 32KB SCC, banked-memory sweep:\n"
		for _, banks := range []int{0, 2, 4, 8, 16} {
			opts := sccsim.Options{}
			if banks > 0 {
				opts.MemBanks = banks
				opts.MemBankOccupancy = 40
			}
			pt, err := runWithOptions(sccsim.BarnesHut, 8, 32*1024, scale, opts)
			if err != nil {
				b.Fatal(err)
			}
			label := "flat"
			if banks > 0 {
				label = fmt.Sprintf("%d banks", banks)
			}
			out += fmt.Sprintf("  %-8s  %12d cycles  bank-wait %d\n",
				label, pt.Result.Cycles, pt.Result.Snoop.MemBankWait)
		}
		show(b, i, out)
	}
}

// BenchmarkAblationSwitchPenalty applies the instruction-cache-derived
// context-switch penalty to the multiprogramming workload (the default
// experiments charge no switch cost, as the paper's scheduler model
// doesn't mention one).
func BenchmarkAblationSwitchPenalty(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		penalty, err := icachePenalty()
		if err != nil {
			b.Fatal(err)
		}
		out := fmt.Sprintf("multiprogramming with icache-derived switch penalty (%d cycles):\n", penalty)
		for _, ppc := range []int{1, 2} {
			base, err := runWithOptions(sccsim.Multiprog, ppc, 64*1024, scale, sccsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			with, err := runWithOptions(sccsim.Multiprog, ppc, 64*1024, scale,
				sccsim.Options{SwitchPenalty: penalty})
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  %dP: %d -> %d cycles (+%.1f%%), %d switches\n",
				ppc, base.Result.Cycles, with.Result.Cycles,
				100*(float64(with.Result.Cycles)/float64(base.Result.Cycles)-1),
				with.Result.Switches)
		}
		show(b, i, out)
	}
}

// BenchmarkAblationCellLocks runs MP3D with per-cell locks (the
// lock-based variant) against the baseline lock-free accumulation,
// showing the cost of fine-grained synchronization in a shared cache.
func BenchmarkAblationCellLocks(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "MP3D cell-lock ablation (4 clusters x 4P, 64KB SCC):\n"
		for _, locks := range []bool{false, true} {
			pt, err := runMP3DLocks(scale, locks)
			if err != nil {
				b.Fatal(err)
			}
			label := "lock-free"
			if locks {
				label = "cell locks"
			}
			out += fmt.Sprintf("  %-10s %12d cycles  %8d lock spins  %d invalidations\n",
				label, pt.Result.Cycles, pt.Result.LockSpins, pt.Result.Snoop.Invalidations)
		}
		show(b, i, out)
	}
}

// BenchmarkAblationVictimBuffer attaches a small victim buffer to each
// SCC — the classic fix for a direct-mapped cache's conflict misses —
// and compares it against higher associativity.
func BenchmarkAblationVictimBuffer(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		out := "Barnes-Hut, 4 clusters x 8P/32KB, victim-buffer sweep:\n"
		for _, entries := range []int{0, 4, 8, 16} {
			pt, err := runWithOptions(sccsim.BarnesHut, 8, 32*1024, scale,
				sccsim.Options{VictimEntries: entries})
			if err != nil {
				b.Fatal(err)
			}
			hits := uint64(0)
			for _, st := range pt.Result.SCCBank {
				hits += st.VictimHits
			}
			out += fmt.Sprintf("  %2d entries  %12d cycles  %8d victim hits\n",
				entries, pt.Result.Cycles, hits)
		}
		show(b, i, out)
	}
}
