package trace

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// AddrBound bounds every address a trace may reference: the simulator
// and the reuse-distance model run only traces whose references lie
// below it (see Measure). 64 MiB is 21× the largest paper-scale
// footprint (Cholesky, 2.99 MiB), and it bounds the tables the
// simulator's coherence bus and the profile builders index by line:
// at most 4 Mi entries (16 MiB) at the paper's 16-byte lines, 16 Mi
// (64 MiB) at 4-byte lines.
const AddrBound = 64 << 20

// Measure counts a stream's memory references (every one but Idle) and
// finds the largest line index they touch at the paper's line size. It
// refuses a stream with a reference at or above AddrBound.
func Measure(st []mem.Ref) (refs uint64, maxLine uint32, err error) {
	var top uint32
	for _, r := range st {
		if r.Kind != mem.Idle {
			refs++
			top = max(top, r.Addr)
		}
	}
	if top >= AddrBound {
		return 0, 0, fmt.Errorf("address %#x is at or above the %d MiB address bound", top, AddrBound>>20)
	}
	return refs, sysmodel.LineIndex(top), nil
}

// Compiled is the validated, measured execution form of a Program: its
// header, its phase names, its streams, and its footprint. It holds no
// copy of the trace. Streams are the program's own slices, so a trace
// is in memory once however many forms of it are in use, and the
// precomputed totals let Program.Refs and the profile builders skip
// their own passes over the trace.
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
// in the program touches, at the paper's line size. The profile
// builders size their line-indexed state from it.
func (c *Compiled) MaxLineIndex() uint32 { return c.maxLine }

// Compile validates and measures the program: one pass (Measure) counts
// its references, finds its largest line and refuses a reference at or
// above AddrBound, and nothing is allocated per reference. The result
// is memoized on the Program (safely for concurrent callers), so every
// design point of a sweep that shares one cached trace also shares one
// compiled form and pays for validation exactly once.
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
			refs, maxLine, err := Measure(st)
			if err != nil {
				return nil, fmt.Errorf("trace: program %q phase %d proc %d: %w", p.Name, i, pr, err)
			}
			c.refs += refs
			c.maxLine = max(c.maxLine, maxLine)
		}
	}
	// First compile wins; concurrent compilers of the same program
	// produce identical results, so either is fine to share.
	if !p.compiled.CompareAndSwap(nil, c) {
		return p.compiled.Load(), nil
	}
	return c, nil
}
