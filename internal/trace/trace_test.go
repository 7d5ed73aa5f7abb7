package trace

import (
	"testing"
	"testing/quick"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.Compute(5)
	b.Read(0x100)
	b.Write(0x200)
	refs := b.Finish()
	if len(refs) != 2 {
		t.Fatalf("got %d refs, want 2", len(refs))
	}
	if refs[0] != (mem.Ref{Addr: 0x100, Kind: mem.Read, Gap: 5}) {
		t.Errorf("refs[0] = %v", refs[0])
	}
	if refs[1] != (mem.Ref{Addr: 0x200, Kind: mem.Write, Gap: 0}) {
		t.Errorf("refs[1] = %v", refs[1])
	}
}

func TestBuilderLargeGapSpillsIdle(t *testing.T) {
	b := NewBuilder(4)
	b.Compute(200_000)
	b.Read(0x100)
	refs := b.Finish()
	var total uint64
	memRefs := 0
	for _, r := range refs {
		total += uint64(r.Gap)
		if r.Kind != mem.Idle {
			memRefs++
			if r.Kind != mem.Read {
				t.Errorf("unexpected kind %v", r.Kind)
			}
		}
	}
	if total != 200_000 {
		t.Errorf("total gap = %d, want 200000", total)
	}
	if memRefs != 1 {
		t.Errorf("memory refs = %d, want 1", memRefs)
	}
}

func TestBuilderTrailingComputeBecomesIdle(t *testing.T) {
	b := NewBuilder(1)
	b.Read(0x40)
	b.Compute(123)
	refs := b.Finish()
	if len(refs) != 2 || refs[1].Kind != mem.Idle || refs[1].Gap != 123 {
		t.Errorf("trailing compute not preserved: %v", refs)
	}
}

func TestBuilderNegativeComputeIgnored(t *testing.T) {
	b := NewBuilder(1)
	b.Compute(-5)
	b.Read(0x40)
	if refs := b.Finish(); refs[0].Gap != 0 {
		t.Errorf("negative compute produced gap %d", refs[0].Gap)
	}
}

func TestReadWriteRegion(t *testing.T) {
	b := NewBuilder(8)
	b.ReadRegion(0x104, 40) // spans lines 0x100..0x12f -> 3 lines
	refs := b.Finish()
	if len(refs) != 3 {
		t.Fatalf("ReadRegion emitted %d refs, want 3", len(refs))
	}
	want := []uint32{0x100, 0x110, 0x120}
	for i, r := range refs {
		if r.Addr != want[i] || r.Kind != mem.Read {
			t.Errorf("refs[%d] = %v, want read of %#x", i, r, want[i])
		}
	}

	b = NewBuilder(8)
	b.WriteRegion(0x200, sysmodel.LineSize)
	refs = b.Finish()
	if len(refs) != 1 || refs[0].Kind != mem.Write {
		t.Errorf("WriteRegion = %v", refs)
	}
}

func TestFinishResetsBuilder(t *testing.T) {
	b := NewBuilder(1)
	b.Read(0x40)
	b.Finish()
	if b.Len() != 0 {
		t.Errorf("Len after Finish = %d, want 0", b.Len())
	}
}

// TestFinishCopyReusesBuffer: a builder serving several streams hands
// out exactly sized copies that later streams do not overwrite, and
// trailing compute still ends each stream as idle refs.
func TestFinishCopyReusesBuffer(t *testing.T) {
	b := NewBuilder(64)
	b.Read(0x40)
	b.Write(0x80)
	b.Compute(3)
	first := b.FinishCopy()
	b.Read(0xc0)
	second := b.FinishCopy()
	want := []mem.Ref{{Addr: 0x40, Kind: mem.Read}, {Addr: 0x80, Kind: mem.Write}, {Kind: mem.Idle, Gap: 3}}
	if len(first) != len(want) || cap(first) != len(want) {
		t.Fatalf("first stream len %d cap %d, want both %d", len(first), cap(first), len(want))
	}
	for i := range want {
		if first[i] != want[i] {
			t.Errorf("first[%d] = %v, want %v", i, first[i], want[i])
		}
	}
	if len(second) != 1 || cap(second) != 1 || second[0] != (mem.Ref{Addr: 0xc0, Kind: mem.Read}) {
		t.Errorf("second stream %v (cap %d), want one read of 0xc0", second, cap(second))
	}
	if b.Len() != 0 {
		t.Errorf("Len after FinishCopy = %d, want 0", b.Len())
	}
}

func validProgram() *Program {
	return &Program{
		Name:  "test",
		Procs: 2,
		Phases: []Phase{
			{Name: "a", Streams: [][]mem.Ref{
				{{Addr: 0x100, Kind: mem.Read}},
				{{Addr: 0x200, Kind: mem.Write}},
			}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	p := validProgram()
	p.Procs = 0
	if p.Validate() == nil {
		t.Error("zero-proc program accepted")
	}

	p = validProgram()
	p.Phases[0].Streams = p.Phases[0].Streams[:1]
	if p.Validate() == nil {
		t.Error("stream-count mismatch accepted")
	}

	p = validProgram()
	p.Phases[0].Streams[0][0].Addr = 0
	if p.Validate() == nil {
		t.Error("zero-address memory ref accepted")
	}

	p = validProgram()
	p.Phases[0].Streams[0][0].Kind = mem.Kind(7)
	if p.Validate() == nil {
		t.Error("bad kind accepted")
	}
}

func TestProgramRefs(t *testing.T) {
	p := validProgram()
	p.Phases[0].Streams[0] = append(p.Phases[0].Streams[0], mem.Ref{Kind: mem.Idle, Gap: 10})
	if got := p.Refs(); got != 2 {
		t.Errorf("Refs() = %d, want 2 (Idle excluded)", got)
	}
}

func TestAnalyze(t *testing.T) {
	p := &Program{
		Name:  "t",
		Procs: 2,
		Phases: []Phase{{Name: "x", Streams: [][]mem.Ref{
			{
				{Addr: 0x100, Kind: mem.Read, Gap: 10},
				{Addr: 0x110, Kind: mem.Write},
				{Addr: 0x300, Kind: mem.Read},
			},
			{
				{Addr: 0x100, Kind: mem.Read, Gap: 5},
				{Addr: 0x110, Kind: mem.Read},
				{Kind: mem.Idle, Gap: 100},
			},
		}}},
	}
	pr := Analyze(p)
	if pr.Reads != 4 || pr.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 4/1", pr.Reads, pr.Writes)
	}
	if pr.ComputeCycles != 115 {
		t.Errorf("compute = %d, want 115", pr.ComputeCycles)
	}
	if pr.FootprintLines != 3 {
		t.Errorf("footprint = %d lines, want 3", pr.FootprintLines)
	}
	if pr.SharedLines != 2 {
		t.Errorf("shared = %d lines, want 2 (0x100 and 0x110)", pr.SharedLines)
	}
	if pr.WriteSharedLines != 1 {
		t.Errorf("write-shared = %d lines, want 1 (0x110)", pr.WriteSharedLines)
	}
	if pr.PerProc[0].FootprintLines != 3 || pr.PerProc[1].FootprintLines != 2 {
		t.Errorf("per-proc footprints = %d,%d want 3,2",
			pr.PerProc[0].FootprintLines, pr.PerProc[1].FootprintLines)
	}
	if pr.WriteFrac() != 0.2 {
		t.Errorf("WriteFrac = %v, want 0.2", pr.WriteFrac())
	}
	if pr.SharedFrac() != 2.0/3.0 {
		t.Errorf("SharedFrac = %v, want 2/3", pr.SharedFrac())
	}
	if pr.FootprintBytes() != 3*sysmodel.LineSize {
		t.Errorf("FootprintBytes = %d", pr.FootprintBytes())
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	p := &Program{Name: "empty", Procs: 1, Phases: nil}
	pr := Analyze(p)
	if pr.RefTotal() != 0 || pr.WriteFrac() != 0 || pr.SharedFrac() != 0 {
		t.Errorf("empty program profile = %+v", pr)
	}
}

// Property: Builder preserves the exact sequence of addresses and the
// exact total compute regardless of how compute is chunked.
func TestBuilderPreservesWorkProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		b := NewBuilder(len(ops))
		var wantAddrs []uint32
		var wantCompute uint64
		for _, op := range ops {
			if op%3 == 0 {
				n := int(op % 100_000)
				b.Compute(n)
				wantCompute += uint64(n)
			} else {
				addr := op | 1 // never zero
				b.Read(addr)
				wantAddrs = append(wantAddrs, addr)
			}
		}
		refs := b.Finish()
		var gotAddrs []uint32
		var gotCompute uint64
		for _, r := range refs {
			gotCompute += uint64(r.Gap)
			if r.Kind != mem.Idle {
				gotAddrs = append(gotAddrs, r.Addr)
			}
		}
		if gotCompute != wantCompute || len(gotAddrs) != len(wantAddrs) {
			return false
		}
		for i := range gotAddrs {
			if gotAddrs[i] != wantAddrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
