package trace

import (
	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// Compiled is the validated, measured execution form of a Program: its
// header, its phase names, its streams, and the footprint metadata the
// simulator needs to size its coherence state up front. It holds no
// copy of the trace. Streams are the program's own slices, so a trace
// is in memory once however many forms of it are in use, and the
// precomputed totals let Program.Refs and the presence-table sizing
// skip their own passes over the trace.
//
// A Compiled is as immutable as the Program it came from: the simulator
// and the sweep engine only read it, so one compiled program may back any
// number of concurrent simulations.
type Compiled struct {
	// Name and Procs mirror the source program's header.
	Name  string
	Procs int
	// PhaseNames[i] is phase i's name.
	PhaseNames []string
	// Streams[i][p] is phase i / processor p's stream: the program's own
	// slice Program.Phases[i].Streams[p], capped at its length so an
	// (impossible) append by a consumer cannot write into the program.
	Streams [][][]mem.Ref

	refs    uint64
	maxLine uint32
}

// Refs returns the total number of memory references (excluding Idle),
// precomputed at compile time.
func (c *Compiled) Refs() uint64 { return c.refs }

// MaxLineIndex returns the largest cache-line index any memory reference
// in the program touches. The simulator uses it to size the coherence
// bus's direct-indexed presence table (see snoop.Bus.ReserveLines).
func (c *Compiled) MaxLineIndex() uint32 { return c.maxLine }

// Compile validates and measures the program: one pass counts its
// references and finds its largest line, and nothing is allocated per
// reference. The result is memoized on the Program (safely for
// concurrent callers), so every design point of a sweep that shares one
// cached trace also shares one compiled form and pays for validation
// exactly once.
func Compile(p *Program) (*Compiled, error) {
	if c := p.compiled.Load(); c != nil {
		return c, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		Name:       p.Name,
		Procs:      p.Procs,
		PhaseNames: make([]string, len(p.Phases)),
		Streams:    make([][][]mem.Ref, len(p.Phases)),
	}
	for i, ph := range p.Phases {
		c.PhaseNames[i] = ph.Name
		c.Streams[i] = make([][]mem.Ref, len(ph.Streams))
		for pr, st := range ph.Streams {
			c.Streams[i][pr] = st[:len(st):len(st)]
			for _, r := range st {
				if r.Kind != mem.Idle {
					c.refs++
					c.maxLine = max(c.maxLine, sysmodel.LineIndex(r.Addr))
				}
			}
		}
	}
	// First compile wins; concurrent compilers of the same program
	// produce identical results, so either is fine to share.
	if !p.compiled.CompareAndSwap(nil, c) {
		return p.compiled.Load(), nil
	}
	return c, nil
}
