// Package multiprog builds the paper's multiprogramming workload
// (Section 2.3): eight SPEC92 benchmarks run as independent processes,
// scheduled round-robin onto the processors of one cluster.
//
// SPEC92 binaries and pixie are not shippable, so each benchmark is a
// synthetic-but-mechanistic kernel whose reference stream reproduces the
// published memory character of the original: footprint, hot working-set
// size, access-pattern mix (sequential sweeps, hash/heap scatter, pointer
// chasing), and write fraction. The multiprogramming result in the paper
// depends only on how these per-process working sets interfere in a
// shared cluster cache, which is exactly what these knobs control.
//
// The paper simulates 100M references (~30M instructions per
// application) against a 5M-cycle scheduling quantum, i.e. each process
// runs for roughly 6-10 quanta. The default RefsPerApp preserves that
// ratio at a CI-friendly scale; use Quantum() for the matching quantum.
package multiprog

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/sim"
	"sccsim/internal/synth"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// DefaultRefsPerApp is the per-process reference budget used when
// Params.RefsPerApp is zero (see the package comment on scaling).
const DefaultRefsPerApp = 600_000

// Params configures the workload.
type Params struct {
	// RefsPerApp is the memory-reference budget per process
	// (0: DefaultRefsPerApp).
	RefsPerApp int
	// Seed drives all the synthetic kernels.
	Seed int64
	// Apps selects a subset by name; nil means all eight.
	Apps []string
}

// Quantum returns the round-robin scheduling quantum matched to the
// given per-app reference budget, preserving the paper's ratio of about
// eight quanta per process (the paper: ~30M instructions per application
// against a 5M-cycle quantum).
func Quantum(refsPerApp int) uint64 {
	// A reference costs ~4-6 cycles on average including stalls.
	q := uint64(refsPerApp) * 5 / 8
	if q == 0 {
		q = 1
	}
	return q
}

// spec describes one benchmark's memory character.
type spec struct {
	name string
	// footprint is the total data size in bytes.
	footprint uint32
	// weights of the access-pattern mix.
	scanW, wsW, chaseW float64
	// working-set model parameters (StackDist).
	pNew, pDepth float64
	// chaseBytes is the pointer-chase region size (heap structures).
	chaseBytes uint32
	// writeFrac is the store fraction of data references.
	writeFrac float64
	// gap is the mean non-memory instructions between references.
	gap int
	// stackRefs is the per-iteration count of hot stack references.
	stackRefs int
}

// The eight applications of Table 2, with memory characters drawn from
// the published SPEC92 analyses: espresso and sc are small/cache-
// friendly; xlisp is pointer-chasing over a modest heap; eqntott and
// compress touch large, poorly-localized tables; gcc has a large mixed
// working set; spice and wave5 stream large floating-point arrays.
// The footprints are the benchmarks' *hot* (re-referenced) working sets,
// sized so the combined eight-process set (~0.5 MB) straddles the
// 4 KB-512 KB SCC sweep — the regime Figures 5-6 of the paper explore.
var specs = []spec{
	{name: "sc", footprint: 40 * 1024, scanW: 0.35, wsW: 0.65, pNew: 0.015, pDepth: 0.25,
		writeFrac: 0.22, gap: 3, stackRefs: 2},
	{name: "espresso", footprint: 28 * 1024, scanW: 0.2, wsW: 0.8, pNew: 0.01, pDepth: 0.35,
		writeFrac: 0.15, gap: 3, stackRefs: 2},
	{name: "eqntott", footprint: 72 * 1024, scanW: 0.75, wsW: 0.25, pNew: 0.02, pDepth: 0.15,
		writeFrac: 0.10, gap: 2, stackRefs: 1},
	{name: "xlisp", footprint: 44 * 1024, scanW: 0.05, wsW: 0.45, chaseW: 0.5, pNew: 0.015,
		pDepth: 0.30, chaseBytes: 28 * 1024, writeFrac: 0.25, gap: 4, stackRefs: 3},
	{name: "compress", footprint: 64 * 1024, scanW: 0.3, wsW: 0.7, pNew: 0.025, pDepth: 0.08,
		writeFrac: 0.28, gap: 3, stackRefs: 1},
	{name: "gcc", footprint: 80 * 1024, scanW: 0.15, wsW: 0.6, chaseW: 0.25, pNew: 0.02,
		pDepth: 0.12, chaseBytes: 32 * 1024, writeFrac: 0.20, gap: 3, stackRefs: 2},
	{name: "spice", footprint: 88 * 1024, scanW: 0.55, wsW: 0.3, chaseW: 0.15, pNew: 0.015,
		pDepth: 0.2, chaseBytes: 36 * 1024, writeFrac: 0.12, gap: 4, stackRefs: 2},
	{name: "wave5", footprint: 96 * 1024, scanW: 0.85, wsW: 0.15, pNew: 0.02, pDepth: 0.3,
		writeFrac: 0.30, gap: 2, stackRefs: 1},
}

// Names returns the benchmark names in workload order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// Generate builds the process set. Process address spaces are disjoint;
// each process's "stack" (hot private locals) is page-colored like the
// parallel workloads' processor stacks.
func Generate(p Params) ([]sim.Process, error) {
	if p.RefsPerApp == 0 {
		p.RefsPerApp = DefaultRefsPerApp
	}
	if p.RefsPerApp < 1000 {
		return nil, fmt.Errorf("multiprog: RefsPerApp = %d, want >= 1000", p.RefsPerApp)
	}
	chosen := specs
	if p.Apps != nil {
		chosen = nil
		for _, name := range p.Apps {
			found := false
			for _, s := range specs {
				if s.name == name {
					chosen = append(chosen, s)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("multiprog: unknown application %q", name)
			}
		}
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("multiprog: empty application list")
	}

	alloc := mem.NewColoredAllocator()
	procs := make([]sim.Process, len(chosen))
	for i, s := range chosen {
		rng := synth.NewRNG(p.Seed ^ int64(i)<<32 ^ int64(len(s.name)))
		refs, err := buildApp(s, p.RefsPerApp, alloc, mem.StackBase(i), rng)
		if err != nil {
			return nil, fmt.Errorf("multiprog: %s: %w", s.name, err)
		}
		procs[i] = sim.Process{Name: s.name, Refs: refs}
	}
	return procs, nil
}

// buildApp emits one process's reference stream.
func buildApp(s spec, budget int, alloc *mem.ColoredAllocator, stack uint32, rng *synth.RNG) ([]mem.Ref, error) {
	// Data regions are allocated in color-block-sized chunks so large
	// footprints coexist with the coloring holes; sources treat the
	// chunks as one logical region each.
	dataChunks := allocChunks(alloc, s.footprint)
	var sources []synth.AddrSource
	var weights []float64

	if s.scanW > 0 {
		sources = append(sources, newChunkScan(dataChunks))
		weights = append(weights, s.scanW)
	}
	if s.wsW > 0 {
		// The working-set source lives on the first chunks (the hot
		// portion of the footprint).
		hot := dataChunks
		if len(hot) > 8 {
			hot = hot[:8]
		}
		sd, err := synth.NewStackDist(spanOf(hot), s.pNew, s.pDepth, 4096, rng)
		if err != nil {
			return nil, err
		}
		sources = append(sources, &chunkFilter{src: sd, chunks: hot})
		weights = append(weights, s.wsW)
	}
	if s.chaseW > 0 {
		chunks := allocChunks(alloc, s.chaseBytes)
		sources = append(sources, newMultiChase(chunks, rng))
		weights = append(weights, s.chaseW)
	}
	mix := synth.NewMix(rng, sources, weights)

	// Exactly the stream's length: stackRefs+1 references per iteration
	// (a gap never exceeds a uint16, so none adds an Idle ref) and the
	// trailing compute's Idle ref.
	bl := trace.NewBuilder(budget*(s.stackRefs+1) + 1)
	for i := 0; i < budget; i++ {
		// Hot private locals: the dominant always-hit traffic of real
		// code, and the source of destructive interference when several
		// processes share a small cache.
		for k := 0; k < s.stackRefs; k++ {
			off := uint32((i + k) % 12 * 8)
			if (i+k)%3 == 0 {
				bl.Write(stack + off)
			} else {
				bl.Read(stack + off)
			}
		}
		addr := mix.Next()
		if rng.Float64() < s.writeFrac {
			bl.Write(addr)
		} else {
			bl.Read(addr)
		}
		bl.Compute(s.gap + rng.Intn(3))
	}
	return bl.Finish(), nil
}

// allocChunks reserves footprint bytes as ColorData-sized colored chunks.
func allocChunks(alloc *mem.ColoredAllocator, footprint uint32) []mem.Region {
	var chunks []mem.Region
	for footprint > 0 {
		n := footprint
		if n > mem.ColorData {
			n = mem.ColorData
		}
		chunks = append(chunks, alloc.Alloc(n, sysmodel.LineSize))
		footprint -= n
	}
	return chunks
}

// spanOf returns a region covering the chunks' address range (used only
// to parameterize StackDist; actual addresses are filtered to chunks).
func spanOf(chunks []mem.Region) mem.Region {
	first := chunks[0]
	last := chunks[len(chunks)-1]
	return mem.Region{Start: first.Start, Size: last.End() - first.Start}
}

// chunkFilter remaps a source's addresses into the data chunks, skipping
// the coloring holes.
type chunkFilter struct {
	src    synth.AddrSource
	chunks []mem.Region
}

func (c *chunkFilter) Next() uint32 {
	addr := c.src.Next()
	if !mem.InHole(addr) {
		return addr
	}
	// Remap hole addresses onto the first chunk, preserving the offset.
	r := c.chunks[0]
	return r.Start + addr%r.Size
}

// chunkScan sweeps a chunk list sequentially, line by line.
type chunkScan struct {
	chunks []mem.Region
	ci     int
	off    uint32
}

func newChunkScan(chunks []mem.Region) *chunkScan { return &chunkScan{chunks: chunks} }

func (s *chunkScan) Next() uint32 {
	r := s.chunks[s.ci]
	addr := r.Start + s.off
	s.off += sysmodel.LineSize
	if s.off >= r.Size {
		s.off = 0
		s.ci = (s.ci + 1) % len(s.chunks)
	}
	return addr
}

// multiChase pointer-chases across a chunk list (one chase per chunk,
// hopping chunks every cycle-completion).
type multiChase struct {
	chases []*synth.PointerChase
	ci     int
	step   int
	perlap int
}

func newMultiChase(chunks []mem.Region, rng *synth.RNG) *multiChase {
	m := &multiChase{perlap: 64}
	for _, r := range chunks {
		m.chases = append(m.chases, synth.NewPointerChase(r, rng))
	}
	return m
}

func (m *multiChase) Next() uint32 {
	addr := m.chases[m.ci].Next()
	m.step++
	if m.step >= m.perlap {
		m.step = 0
		m.ci = (m.ci + 1) % len(m.chases)
	}
	return addr
}
