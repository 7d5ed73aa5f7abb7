package barnes

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/synth"
	"sccsim/internal/trace"
)

// Params configures a Barnes-Hut run. The zero value of any field selects
// the paper's setting.
type Params struct {
	// NBodies is the number of bodies (paper: 1024).
	NBodies int
	// Steps is the number of simulated timesteps (default 3).
	Steps int
	// Theta is the opening criterion (default 1.5).
	Theta float64
	// DT is the integration timestep (default 0.025).
	DT float64
	// Seed selects the Plummer-model initial conditions.
	Seed int64
	// Procs is the number of logical processors to partition across.
	Procs int
}

func (p Params) withDefaults() Params {
	if p.NBodies == 0 {
		p.NBodies = 1024
	}
	if p.Steps == 0 {
		p.Steps = 3
	}
	if p.Theta == 0 {
		p.Theta = 1.5
	}
	if p.DT == 0 {
		p.DT = 0.025
	}
	if p.Procs == 0 {
		p.Procs = 1
	}
	return p
}

// Instruction-cost constants (non-memory work per operation), scaled for
// a single-issue RISC core: a gravitational interaction is ~20 flops plus
// address arithmetic; tree-descent bookkeeping is a handful of ALU ops.
const (
	costInteract   = 22
	costOpenTest   = 8
	costDescend    = 6
	costComPerKid  = 10
	costComFinish  = 12
	costInsertStep = 7
	costUpdate     = 24
	costBodySetup  = 12
)

// stackFrameBytes is the activation-record size of the recursive tree
// walk and stackBytes the per-processor stack allocation. Stack and local
// references are a large fraction of real RISC data traffic; they are
// private per processor, which is what makes several processors interfere
// destructively in a small shared cache.
const (
	stackFrameBytes = 64
	stackBytes      = mem.StackBytes
)

// emitVisitor turns force-phase tree walks into references.
type emitVisitor struct {
	b *trace.Builder
	// stack is the base address of the owning processor's stack.
	stack uint32
}

// frameAddr returns the activation-record address for a recursion depth,
// clamped to the stack allocation.
func (v *emitVisitor) frameAddr(depth int) uint32 {
	off := uint32(depth) * stackFrameBytes
	if off >= stackBytes {
		off = stackBytes - stackFrameBytes
	}
	return v.stack + off
}

// frame emits the stack traffic of entering an activation record: saved
// registers and incoming arguments.
func (v *emitVisitor) frame(depth int) {
	addr := v.frameAddr(depth)
	v.b.Write(addr)
	v.b.Write(addr + 8)
	v.b.Read(addr + 16)
}

// locals emits n references to the current frame's spill/temporary slots
// — the register-pressure traffic that dominates real RISC reference
// streams. They are private and hot: they hit even in a tiny cache when
// one processor runs alone, and thrash when many processors share it.
func (v *emitVisitor) locals(depth, n int) {
	addr := v.frameAddr(depth)
	for i := 0; i < n; i++ {
		off := uint32(24 + (i%10)*8)
		if i%3 == 0 {
			v.b.Write(addr + off)
		} else {
			v.b.Read(addr + off)
		}
	}
}

func (v *emitVisitor) visitCell(c *cell, opened bool, depth int) {
	v.frame(depth)
	// Opening test: load the cell's centre of mass and half-size.
	v.b.Read(c.addr + cellComOff)
	v.b.Read(c.addr + cellComOff + 8)
	v.b.Read(c.addr + cellComOff + 16)
	v.b.Read(c.addr + cellHalfOff)
	v.locals(depth, 3)
	v.b.Compute(costOpenTest)
	if opened {
		// Descend: scan the eight child pointers.
		for o := 0; o < 8; o++ {
			v.b.Read(c.addr + cellChildrenOff + uint32(o)*4)
		}
		v.locals(depth, 2)
		v.b.Compute(costDescend)
	} else {
		// Interact with the aggregate: load the mass too.
		v.b.Read(c.addr + cellMassOff)
		v.locals(depth, 5)
		v.b.Compute(costInteract)
	}
}

func (v *emitVisitor) visitBody(other *body, depth int) {
	v.b.Read(other.addr + bodyPosOff)
	v.b.Read(other.addr + bodyPosOff + 8)
	v.b.Read(other.addr + bodyPosOff + 16)
	v.b.Read(other.addr + bodyMassOff)
	v.locals(depth, 6)
	v.b.Compute(costInteract)
}

// Generate runs the N-body simulation and returns the per-processor
// reference trace. The same Params always yield the same Program.
func Generate(p Params) (*trace.Program, error) {
	p = p.withDefaults()
	if p.NBodies < 2 {
		return nil, fmt.Errorf("barnes: NBodies = %d, want >= 2", p.NBodies)
	}
	if p.Procs < 1 || p.Procs > p.NBodies {
		return nil, fmt.Errorf("barnes: Procs = %d, want 1..NBodies", p.Procs)
	}
	if p.Theta <= 0 {
		return nil, fmt.Errorf("barnes: Theta = %v, want > 0", p.Theta)
	}

	rng := synth.NewRNG(p.Seed)
	bodies := plummer(p.NBodies, rng)
	// Data lives in page-colored address space; per-processor stacks sit
	// in the coloring holes so they never alias data in caches >= 32 KB
	// (see mem.StackBase).
	alloc := mem.NewColoredAllocator()
	for _, b := range bodies {
		b.addr = alloc.Alloc(bodyBytes, 16).Start
		b.work = 1
	}
	pool := &cellPool{alloc: func() uint32 {
		return alloc.Alloc(cellBytes, 16).Start
	}}
	stacks := make([]uint32, p.Procs)
	for i := range stacks {
		stacks[i] = mem.StackBase(i)
	}

	// owner[i] is the processor responsible for bodies[i] this step.
	owner := make([]int, p.NBodies)
	for i := range owner {
		owner[i] = i * p.Procs / p.NBodies
	}
	index := make(map[*body]int, p.NBodies)
	for i, b := range bodies {
		index[b] = i
	}

	prog := &trace.Program{Name: "barnes-hut", Procs: p.Procs}

	for step := 0; step < p.Steps; step++ {
		t := build(bodies, pool)

		// --- Phase: tree build -------------------------------------
		// Each processor loads its own bodies into the tree; the
		// references are the cells its insertion paths touched.
		builders := trace.NewBuilders(p.Procs, p.NBodies/p.Procs*8)
		for i, b := range bodies {
			bl := builders[owner[i]]
			bl.Read(stacks[owner[i]]) // loop locals
			bl.Read(b.addr + bodyPosOff)
			bl.Read(b.addr + bodyPosOff + 8)
			bl.Read(b.addr + bodyPosOff + 16)
			for _, c := range t.paths[i] {
				o := octant(c, &b.pos)
				bl.Read(c.addr + cellChildrenOff + uint32(o)*4)
				bl.Compute(costInsertStep)
			}
			// Link the body into its final slot.
			last := t.paths[i][len(t.paths[i])-1]
			bl.Write(last.addr + cellChildrenOff + uint32(octant(last, &b.pos))*4)
		}
		prog.Phases = append(prog.Phases, trace.FinishPhase("build", builders))

		// --- Phase: centre of mass ----------------------------------
		order := t.computeCOM() // postorder: children before parents
		builders = trace.NewBuilders(p.Procs, len(order)*10/p.Procs)
		for ci, c := range order {
			// Cells are claimed round-robin from a shared work queue, as
			// the SPLASH code's self-scheduling loop does; a cell's COM
			// writer is therefore uncorrelated with its force-phase
			// readers.
			bl := builders[ci%p.Procs]
			for _, ch := range c.child {
				if ch == nil {
					continue
				}
				if ch.cell != nil {
					bl.Read(ch.cell.addr + cellComOff)
					bl.Read(ch.cell.addr + cellComOff + 8)
					bl.Read(ch.cell.addr + cellComOff + 16)
					bl.Read(ch.cell.addr + cellMassOff)
				} else {
					bl.Read(ch.body.addr + bodyPosOff)
					bl.Read(ch.body.addr + bodyPosOff + 8)
					bl.Read(ch.body.addr + bodyPosOff + 16)
					bl.Read(ch.body.addr + bodyMassOff)
				}
				bl.Compute(costComPerKid)
			}
			bl.Write(c.addr + cellComOff)
			bl.Write(c.addr + cellComOff + 8)
			bl.Write(c.addr + cellComOff + 16)
			bl.Write(c.addr + cellMassOff)
			bl.Compute(costComFinish)
		}
		prog.Phases = append(prog.Phases, trace.FinishPhase("com", builders))

		// --- Repartition: contiguous leaf-order chunks, weighted by
		// last step's interaction counts (SPLASH costzones).
		leaves := t.leafOrder()
		totalWork := 0
		for _, b := range leaves {
			totalWork += b.work
		}
		target := float64(totalWork) / float64(p.Procs)
		proc, acc := 0, 0.0
		for _, b := range leaves {
			if acc >= target*float64(proc+1) && proc < p.Procs-1 {
				proc++
			}
			owner[index[b]] = proc
			acc += float64(b.work)
		}

		// --- Phase: force computation -------------------------------
		// Bodies are processed in array (arrival) order, as the SPLASH
		// code iterates its body list. Within one processor's chunk that
		// order is spatially scattered, so a single processor re-streams
		// shared tree cells between traversals; several processors per
		// cluster have proportionally finer chunks (tighter per-chunk
		// working sets) and touch the shared cells concurrently — the
		// intra-cluster prefetching the paper describes.
		builders = trace.NewBuilders(p.Procs, p.NBodies/p.Procs*600)
		for _, b := range bodies {
			who := owner[index[b]]
			bl := builders[who]
			bl.Read(b.addr + bodyPosOff)
			bl.Read(b.addr + bodyPosOff + 8)
			bl.Read(b.addr + bodyPosOff + 16)
			bl.Compute(costBodySetup)
			b.work = force(t, b, p.Theta, &emitVisitor{b: bl, stack: stacks[who]})
			bl.Write(b.addr + bodyAccOff)
			bl.Write(b.addr + bodyAccOff + 8)
			bl.Write(b.addr + bodyAccOff + 16)
		}
		prog.Phases = append(prog.Phases, trace.FinishPhase("force", builders))

		// --- Phase: position update ---------------------------------
		builders = trace.NewBuilders(p.Procs, p.NBodies/p.Procs*14)
		for i, b := range bodies {
			bl := builders[owner[i]]
			bl.Read(stacks[owner[i]]) // loop locals
			for off := uint32(0); off < 24; off += 8 {
				bl.Read(b.addr + bodyAccOff + off)
				bl.Read(b.addr + bodyVelOff + off)
				bl.Write(b.addr + bodyVelOff + off)
				bl.Read(b.addr + bodyPosOff + off)
				bl.Write(b.addr + bodyPosOff + off)
			}
			bl.Compute(costUpdate)
			advance(b, p.DT)
		}
		prog.Phases = append(prog.Phases, trace.FinishPhase("update", builders))
	}

	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("barnes: generated invalid program: %w", err)
	}
	return prog, nil
}
