// Package cholesky implements the SPLASH Cholesky application as a
// trace-generating workload: supernodal fan-out factorization of a
// BCSSTK14-like sparse matrix, scheduled across processors with the
// pipelined task model the SPLASH code uses (dynamic task queue,
// per-supernode locks).
//
// The paper's observations for Cholesky: almost no increase in
// invalidations with more processors per cluster; mild prefetching; and —
// the dominant effect — limited speedup (~3.0 at 4 KB to ~3.5 at 512 KB
// for eight processors per cluster) caused by the input's limited
// concurrency, load imbalance and synchronization overhead. Those limits
// live in the schedule: the emitted per-processor streams include the
// waits the task DAG forces.
package cholesky

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/sparse"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// Params configures a Cholesky run. Zero fields select the paper's
// BCSSTK14 configuration.
type Params struct {
	// Procs is the number of logical processors.
	Procs int
	// Seed drives the synthetic matrix structure.
	Seed int64
	// MaxSupernodeWidth caps supernode amalgamation (0 = default).
	MaxSupernodeWidth int
	// Grid overrides the mesh dimensions (0 = BCSSTK14-like defaults).
	GridW, GridH int
}

// Generate factors the matrix symbolically, schedules the supernodal
// fan-out DAG onto the processors, and emits the reference trace.
func Generate(p Params) (*trace.Program, error) {
	if p.Procs == 0 {
		p.Procs = 1
	}
	if p.Procs < 1 {
		return nil, fmt.Errorf("cholesky: Procs = %d", p.Procs)
	}

	a := sparse.GenerateBCSSTK14Like(sparse.BCSSTK14Params{
		GridW: p.GridW, GridH: p.GridH, Seed: p.Seed,
	})
	parent := sparse.EliminationTree(a)
	l := sparse.SymbolicFactor(a, parent)
	sns, colSn := sparse.FindSupernodes(l, p.MaxSupernodeWidth)
	ops, succ, indeg := sparse.BuildOps(l, sns, colSn)
	sched, err := sparse.ListSchedule(ops, succ, indeg, len(sns), p.Procs)
	if err != nil {
		return nil, err
	}

	// Memory layout: per-column value arrays (8 B/entry) and row-index
	// arrays (4 B/entry) of L, plus the input matrix A, all in colored
	// data space; per-processor stacks in the holes.
	alloc := mem.NewColoredAllocator()
	valAddr := make([]uint32, l.N)
	idxAddr := make([]uint32, l.N)
	for j := 0; j < l.N; j++ {
		nnz := uint32(len(l.Col(j)))
		valAddr[j] = alloc.Alloc(nnz*8, 16).Start
		idxAddr[j] = alloc.Alloc(nnz*4, 16).Start
	}
	aAddr := make([]uint32, a.N)
	for j := 0; j < a.N; j++ {
		aAddr[j] = alloc.Alloc(uint32(len(a.Col(j)))*8, 16).Start
	}
	stacks := make([]uint32, p.Procs)
	for i := range stacks {
		stacks[i] = mem.StackBase(i)
	}

	prog := &trace.Program{Name: "cholesky", Procs: p.Procs}

	// --- Phase: load -----------------------------------------------
	// Copy A into the factor storage (each processor loads a contiguous
	// share of the columns, as the SPLASH initialization does).
	loadBuilders := trace.NewBuilders(p.Procs, a.Nnz()/p.Procs)
	for j := 0; j < a.N; j++ {
		bl := loadBuilders[j*p.Procs/a.N]
		bl.Read(stacks[j*p.Procs/a.N])
		an := uint32(len(a.Col(j)))
		for off := uint32(0); off < an*8; off += sysmodel.LineSize {
			bl.Read(aAddr[j] + off)
			bl.Write(valAddr[j] + off)
		}
		bl.Compute(int(an) * 2)
	}
	prog.Phases = append(prog.Phases, trace.FinishPhase("load", loadBuilders))

	// --- Phase: factor ----------------------------------------------
	// Replay the schedule: each processor's operation sequence with the
	// DAG-forced waits as idle time. The schedule spreads the work
	// unevenly, so one builder emits every processor's stream in turn
	// and each stream is copied out at its exact length.
	bl := trace.NewBuilder(1 << 16)
	factor := make([][]mem.Ref, p.Procs)
	for proc, seq := range sched.PerProc {
		stack := stacks[proc]
		var cursor int64
		for _, so := range seq {
			if so.Start > cursor {
				bl.Compute(int(so.Start - cursor)) // waiting on deps/locks
			}
			cursor = so.End
			switch so.Kind {
			case sparse.SFactor:
				emitSFactor(bl, stack, l, sns[so.J], valAddr, idxAddr)
			case sparse.SMod:
				emitSMod(bl, stack, l, sns[so.J], sns[so.K], valAddr, idxAddr)
			}
		}
		factor[proc] = bl.FinishCopy()
	}
	prog.Phases = append(prog.Phases, trace.Phase{Name: "factor", Streams: factor})

	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cholesky: generated invalid program: %w", err)
	}
	return prog, nil
}

// emitSFactor emits the internal dense factorization of supernode s:
// stream each column, read the row indices, scale and update within the
// supernode.
func emitSFactor(bl *trace.Builder, stack uint32, l *sparse.Pattern, s sparse.Supernode, valAddr, idxAddr []uint32) {
	bl.Write(stack) // frame
	bl.Read(stack + 8)
	for j := int(s.First); j < int(s.Last); j++ {
		nnz := uint32(len(l.Col(j)))
		bl.Read(stack + 16) // loop locals
		bl.Read(stack + 24)
		for off := uint32(0); off < nnz*4; off += sysmodel.LineSize {
			bl.Read(idxAddr[j] + off)
		}
		for off := uint32(0); off < nnz*8; off += sysmodel.LineSize {
			bl.Read(valAddr[j] + off)
			bl.Write(valAddr[j] + off)
		}
		bl.Compute(int(nnz) * int(nnz) / 2)
	}
}

// emitSMod emits the update of target supernode tgt by source supernode
// src: stream the source columns' tails and read-modify-write the target
// columns.
func emitSMod(bl *trace.Builder, stack uint32, l *sparse.Pattern, tgt, src sparse.Supernode, valAddr, idxAddr []uint32) {
	bl.Write(stack) // frame
	bl.Read(stack + 8)

	// Rows of the source at or below the target's first column.
	srcCol := l.Col(int(src.First))
	// Find the entry offset where rows >= tgt.First start.
	start := 0
	for start < len(srcCol) && srcCol[start] < tgt.First {
		start++
	}
	tail := len(srcCol) - start
	if tail <= 0 {
		return
	}
	// Count how many of those rows land inside the target supernode.
	overlap := 0
	for i := start; i < len(srcCol) && srcCol[i] < tgt.Last; i++ {
		overlap++
	}

	for k := int(src.First); k < int(src.Last); k++ {
		bl.Read(stack + 16) // per-column temporaries
		// The source column shares the supernode's trailing structure;
		// its tail begins at the same rows, offset by (k - First)
		// leading entries.
		nnz := len(l.Col(k))
		off0 := uint32(start-(k-int(src.First))) * 8
		if int(off0/8) > nnz {
			continue
		}
		// Stream the source tail.
		for off := sysmodel.LineAddr(off0); off < uint32(nnz)*8; off += sysmodel.LineSize {
			bl.Read(valAddr[k] + off)
		}
		// Row indices of the tail.
		for off := sysmodel.LineAddr(off0 / 2); off < uint32(nnz)*4; off += sysmodel.LineSize {
			bl.Read(idxAddr[k] + off)
		}
		// Accumulate into the target columns (scatter through the
		// target's leading region). The scatter loop is spill-heavy:
		// per-row index arithmetic keeps stack temporaries hot.
		for t := 0; t < overlap; t++ {
			tj := int(srcCol[start+t])
			bl.Read(stack + 32)
			bl.Read(valAddr[tj])
			bl.Write(valAddr[tj])
			bl.Write(stack + 40)
		}
		bl.Compute(overlap * (tail + 2))
	}
}
