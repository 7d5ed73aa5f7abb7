// Package mp3d implements the MP3D application from the SPLASH suite as a
// trace-generating workload: a particle-based Monte Carlo simulation of
// rarefied hypersonic flow in a wind tunnel (Stanford's MP3D), with the
// reference behaviour the paper relies on — poor locality, a large
// streaming particle array, and frequent writes to globally shared space
// cells that make it invalidation-bound on cache-coherent machines.
//
// Particles are statically assigned to processors by index (as MP3D
// assigns them), which is spatially random: every processor's particles
// are spread over the whole tunnel, so the space-cell array is write-
// shared by everybody and, unlike Barnes-Hut, there is no useful locality
// for a cluster to exploit. The paper: "prefetching does not reduce the
// miss rates of MP3D due to the lack of locality; however, destructive
// interference does increase the miss rates of smaller SCCs."
package mp3d

import (
	"fmt"
	"math"

	"sccsim/internal/mem"
	"sccsim/internal/synth"
	"sccsim/internal/trace"
)

// Params configures an MP3D run. Zero fields select the paper's setting.
type Params struct {
	// Particles is the number of simulated molecules (paper: 10,000).
	Particles int
	// Steps is the number of timesteps (paper: 5).
	Steps int
	// Procs is the number of logical processors.
	Procs int
	// Seed selects initial particle positions and velocities.
	Seed int64
	// GridX, GridY, GridZ are the space-cell grid dimensions
	// (default 24 x 12 x 12, ~2.9 particles per cell at 10,000).
	GridX, GridY, GridZ int
	// CellLocks guards every space-cell update with a per-cell lock, as
	// the lock-based variants of MP3D do. Off by default: the paper's
	// baseline results use the lock-free accumulate version; turning it
	// on is an ablation that adds lock traffic and serialization.
	CellLocks bool
}

func (p Params) withDefaults() Params {
	if p.Particles == 0 {
		p.Particles = 10000
	}
	if p.Steps == 0 {
		p.Steps = 5
	}
	if p.Procs == 0 {
		p.Procs = 1
	}
	if p.GridX == 0 {
		p.GridX = 24
	}
	if p.GridY == 0 {
		p.GridY = 12
	}
	if p.GridZ == 0 {
		p.GridZ = 12
	}
	return p
}

// particle is one molecule. Memory image: 64 bytes = 4 lines
// (pos[0:24], vel[24:48], cell index + flags [48:64]).
type particle struct {
	pos, vel [3]float64
	addr     uint32
}

const particleBytes = 64

// spaceCell aggregates the molecules currently inside one grid cell.
// Memory image: 48 bytes = 3 lines (count + momentum sums + energy +
// collision bookkeeping).
type spaceCell struct {
	count   int
	lastIdx int // most recent particle seen this step (collision partner)
	addr    uint32
}

const spaceCellBytes = 48

// Simulation constants.
const (
	dt          = 0.08
	streamVel   = 1.1 // free-stream velocity along +x
	thermalVel  = 0.35
	collProb    = 0.22 // per-step collision probability given a partner
	costMove    = 28   // non-memory instructions per particle move
	costCollide = 30
	costTally   = 14
)

// Per-processor stack model (cf. the Barnes-Hut emitter).
const stackFrameBytes = 64

type world struct {
	p         Params
	particles []*particle
	cells     []*spaceCell
	rng       *synth.RNG
	stacks    []uint32
	globals   mem.Region // shared tally counters
}

// cellIndex maps a position to its grid cell, clamping to the tunnel.
func (w *world) cellIndex(pos *[3]float64) int {
	cx := clamp(int(pos[0]), 0, w.p.GridX-1)
	cy := clamp(int(pos[1]), 0, w.p.GridY-1)
	cz := clamp(int(pos[2]), 0, w.p.GridZ-1)
	return (cx*w.p.GridY+cy)*w.p.GridZ + cz
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Generate runs the particle simulation and returns the per-processor
// reference trace.
func Generate(p Params) (*trace.Program, error) {
	p = p.withDefaults()
	if p.Particles < 2 {
		return nil, fmt.Errorf("mp3d: Particles = %d, want >= 2", p.Particles)
	}
	if p.Procs < 1 || p.Procs > p.Particles {
		return nil, fmt.Errorf("mp3d: Procs = %d, want 1..Particles", p.Procs)
	}
	if p.GridX < 1 || p.GridY < 1 || p.GridZ < 1 {
		return nil, fmt.Errorf("mp3d: bad grid %dx%dx%d", p.GridX, p.GridY, p.GridZ)
	}

	w := &world{p: p, rng: synth.NewRNG(p.Seed)}
	alloc := mem.NewColoredAllocator()

	// Space-cell array first: it is the shared hot structure.
	ncells := p.GridX * p.GridY * p.GridZ
	w.cells = make([]*spaceCell, ncells)
	for i := range w.cells {
		w.cells[i] = &spaceCell{addr: alloc.Alloc(spaceCellBytes, 16).Start, lastIdx: -1}
	}
	// Global tally counters: a handful of lines everybody writes.
	w.globals = alloc.Alloc(128, 16)

	// Particles, uniformly distributed with free-stream + thermal motion.
	w.particles = make([]*particle, p.Particles)
	for i := range w.particles {
		pt := &particle{addr: alloc.Alloc(particleBytes, 16).Start}
		pt.pos[0] = w.rng.Float64() * float64(p.GridX)
		pt.pos[1] = w.rng.Float64() * float64(p.GridY)
		pt.pos[2] = w.rng.Float64() * float64(p.GridZ)
		pt.vel[0] = streamVel + thermalVel*w.rng.NormFloat64()
		pt.vel[1] = thermalVel * w.rng.NormFloat64()
		pt.vel[2] = thermalVel * w.rng.NormFloat64()
		w.particles[i] = pt
	}

	w.stacks = make([]uint32, p.Procs)
	for i := range w.stacks {
		w.stacks[i] = mem.StackBase(i)
	}

	prog := &trace.Program{Name: "mp3d", Procs: p.Procs}
	for step := 0; step < p.Steps; step++ {
		prog.Phases = append(prog.Phases, w.movePhase(), w.tallyPhase())
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("mp3d: generated invalid program: %w", err)
	}
	return prog, nil
}

// movePhase advances every particle one step and emits the references.
// Particle i belongs to processor i*Procs/Particles (static block
// assignment over a spatially random initial ordering).
func (w *world) movePhase() trace.Phase {
	p := w.p
	builders := trace.NewBuilders(p.Procs, p.Particles/p.Procs*24)
	for i := range w.cells {
		w.cells[i].count = 0
		w.cells[i].lastIdx = -1
	}

	for i, pt := range w.particles {
		proc := i * p.Procs / p.Particles
		bl := builders[proc]
		stack := w.stacks[proc]

		// Loop locals and saved registers. The move loop is spill-heavy:
		// nine position/velocity temporaries, grid scaling factors and
		// boundary tests keep a couple of stack lines extremely hot.
		bl.Write(stack)
		bl.Read(stack + 8)
		bl.Read(stack + 16)
		bl.Write(stack + 24)
		bl.Read(stack + 32)
		bl.Write(stack + 40)
		bl.Read(stack + 48)
		bl.Read(stack + 56)

		// Load the particle: position and velocity.
		bl.Read(pt.addr)      // pos[0], pos[1]
		bl.Read(pt.addr + 16) // pos[2]
		bl.Read(pt.addr + 24) // vel[0]
		bl.Read(pt.addr + 32) // vel[1], vel[2]
		bl.Compute(costMove)

		// Physics: advance and reflect off the tunnel walls (specular),
		// re-entering at the inlet when leaving the outlet.
		for d := 0; d < 3; d++ {
			pt.pos[d] += pt.vel[d] * dt
		}
		lims := [3]float64{float64(p.GridX), float64(p.GridY), float64(p.GridZ)}
		if pt.pos[0] >= lims[0] {
			pt.pos[0] -= lims[0] // outlet -> inlet (reservoir)
		}
		if pt.pos[0] < 0 {
			pt.pos[0] += lims[0]
		}
		for d := 1; d < 3; d++ {
			if pt.pos[d] < 0 {
				pt.pos[d] = -pt.pos[d]
				pt.vel[d] = -pt.vel[d]
			}
			if pt.pos[d] >= lims[d] {
				pt.pos[d] = 2*lims[d] - pt.pos[d] - 1e-9
				pt.vel[d] = -pt.vel[d]
			}
		}

		// Store the new position.
		bl.Write(pt.addr)
		bl.Write(pt.addr + 16)

		// Update the space cell: count and momentum sums. This is the
		// globally write-shared traffic that makes MP3D invalidation-
		// bound.
		ci := w.cellIndex(&pt.pos)
		cell := w.cells[ci]
		bl.Read(stack + 64) // cell-indexing temporaries
		bl.Write(stack + 72)
		if p.CellLocks {
			bl.Lock(cell.addr + 40)
		}
		bl.Read(cell.addr)
		bl.Write(cell.addr)
		bl.Read(cell.addr + 16)
		bl.Write(cell.addr + 16)
		bl.Write(pt.addr + 48) // remember the particle's cell
		bl.Compute(costMove / 2)

		// Collision: with some probability, exchange momentum with the
		// most recent particle seen in the same cell.
		if cell.lastIdx >= 0 && w.rng.Float64() < collProb {
			partner := w.particles[cell.lastIdx]
			bl.Read(stack + 24) // spill around the call
			bl.Read(partner.addr + 24)
			bl.Read(partner.addr + 32)
			// Hard-sphere relaxation: swap a velocity component pair.
			pt.vel, partner.vel = mix(pt.vel, partner.vel, w.rng)
			bl.Write(partner.addr + 24)
			bl.Write(partner.addr + 32)
			bl.Write(pt.addr + 24)
			bl.Write(pt.addr + 32)
			bl.Write(cell.addr + 32) // collision counter
			bl.Compute(costCollide)
		}
		if p.CellLocks {
			bl.Unlock(cell.addr + 40)
		}
		cell.count++
		cell.lastIdx = i
	}
	return trace.FinishPhase("move", builders)
}

// mix performs an energy-conserving velocity exchange.
func mix(a, b [3]float64, rng *synth.RNG) ([3]float64, [3]float64) {
	// Random post-collision orientation, preserving the pair's momentum
	// and kinetic energy (hard-sphere model).
	var cm, rel [3]float64
	relMag := 0.0
	for d := 0; d < 3; d++ {
		cm[d] = (a[d] + b[d]) / 2
		rel[d] = a[d] - b[d]
		relMag += rel[d] * rel[d]
	}
	relMag = math.Sqrt(relMag)
	u := rng.UnitVector3()
	for d := 0; d < 3; d++ {
		a[d] = cm[d] + u[d]*relMag/2
		b[d] = cm[d] - u[d]*relMag/2
	}
	return a, b
}

// tallyPhase models MP3D's global accounting at the end of each step:
// every processor updates a handful of shared counters (collision totals,
// energy sums). The counters live on a few lines that ping-pong between
// clusters — invalidation traffic that depends on the number of clusters,
// not on the number of processors per cluster.
func (w *world) tallyPhase() trace.Phase {
	builders := trace.NewBuilders(w.p.Procs, 16)
	for proc, bl := range builders {
		stack := w.stacks[proc]
		bl.Read(stack)
		for line := uint32(0); line < w.globals.Size; line += 16 {
			bl.Read(w.globals.Start + line)
			bl.Write(w.globals.Start + line)
		}
		bl.Compute(costTally)
	}
	return trace.FinishPhase("tally", builders)
}
