package trace

import (
	"reflect"
	"runtime"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// compileFixture builds a small two-phase, two-processor program with
// idle refs, uneven streams, and a known footprint.
func compileFixture() *Program {
	return &Program{
		Name:  "fixture",
		Procs: 2,
		Phases: []Phase{
			{Name: "build", Streams: [][]mem.Ref{
				{
					{Addr: 0x100, Kind: mem.Read, Gap: 3},
					{Kind: mem.Idle, Gap: 7},
					{Addr: 0x2000, Kind: mem.Write},
				},
				{
					{Addr: 0x110, Kind: mem.Read},
				},
			}},
			{Name: "solve", Streams: [][]mem.Ref{
				{},
				{
					{Addr: 0x40, Kind: mem.Lock},
					{Addr: 0x9000, Kind: mem.Write, Gap: 1},
					{Addr: 0x40, Kind: mem.Unlock},
				},
			}},
		},
	}
}

func TestCompileLayoutAndMetadata(t *testing.T) {
	p := compileFixture()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != p.Name || c.Procs != p.Procs {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", c.Name, c.Procs, p.Name, p.Procs)
	}
	// Streams must mirror the program's slices value-for-value.
	for i, ph := range p.Phases {
		if c.PhaseNames[i] != ph.Name {
			t.Errorf("phase %d name %q, want %q", i, c.PhaseNames[i], ph.Name)
		}
		for pr, st := range ph.Streams {
			got := c.Streams[i][pr]
			if !reflect.DeepEqual(append([]mem.Ref{}, got...), append([]mem.Ref{}, st...)) {
				t.Errorf("phase %d proc %d stream differs from source", i, pr)
			}
		}
	}
	// Footprint metadata: 6 non-idle refs, max line from 0x9000.
	if c.Refs() != 6 {
		t.Errorf("Refs() = %d, want 6", c.Refs())
	}
	if want := sysmodel.LineIndex(0x9000); c.MaxLineIndex() != want {
		t.Errorf("MaxLineIndex() = %d, want %d", c.MaxLineIndex(), want)
	}
}

// TestCompileSharesProgramStreams: a compiled program holds no copy of
// the trace. Each stream is the program's own backing array, capped at
// its length, and compiling a program of a million references
// allocates only its per-phase tables.
func TestCompileSharesProgramStreams(t *testing.T) {
	const procs, phases, refs = 4, 2, 1 << 17
	p := &Program{Name: "big", Procs: procs}
	for i := 0; i < phases; i++ {
		ph := Phase{Name: "phase"}
		for pr := 0; pr < procs; pr++ {
			st := make([]mem.Ref, refs, refs+8)
			for j := range st {
				st[j] = mem.Ref{Addr: uint32(pr<<20 | j<<4 | 1), Kind: mem.Read, Gap: 1}
			}
			ph.Streams = append(ph.Streams, st)
		}
		p.Phases = append(p.Phases, ph)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Compile(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c.Refs() != procs*phases*refs {
		t.Fatalf("Refs() = %d, want %d", c.Refs(), procs*phases*refs)
	}
	for i, ph := range p.Phases {
		for pr, st := range ph.Streams {
			got := c.Streams[i][pr]
			if &got[0] != &st[0] || len(got) != len(st) || cap(got) != len(st) {
				t.Errorf("phase %d proc %d: stream is not the program's slice capped at its length", i, pr)
			}
		}
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("Compile allocated %d bytes for %d refs, want under 64 KB", alloc, c.Refs())
	}
}

func TestCompileMemoizes(t *testing.T) {
	p := compileFixture()
	c1, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Compile returned a different object; memo not used")
	}
}

func TestProgramRefsAgreesWithCompiled(t *testing.T) {
	p := compileFixture()
	slow := p.Refs() // pre-compile: counting pass
	if _, err := Compile(p); err != nil {
		t.Fatal(err)
	}
	if fast := p.Refs(); fast != slow {
		t.Fatalf("Refs() changed after compile: %d vs %d", fast, slow)
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	p := &Program{Name: "bad", Procs: 2, Phases: []Phase{
		{Name: "p", Streams: [][]mem.Ref{{}}}, // 1 stream, want 2
	}}
	if _, err := Compile(p); err == nil {
		t.Fatal("Compile accepted a program Validate rejects")
	}
	if p.compiled.Load() != nil {
		t.Fatal("failed Compile populated the memo")
	}
}
