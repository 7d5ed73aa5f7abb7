package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"sccsim/internal/mem"
)

func roundTrip(t *testing.T, p *Program) *Program {
	t.Helper()
	var buf bytes.Buffer
	if err := p.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestIORoundTrip(t *testing.T) {
	p := &Program{
		Name:  "roundtrip",
		Procs: 2,
		Phases: []Phase{
			{Name: "a", Streams: [][]mem.Ref{
				{{Addr: 0x100, Kind: mem.Read, Gap: 5}, {Kind: mem.Idle, Gap: 100}},
				{{Addr: 0x200, Kind: mem.Write}},
			}},
			{Name: "b", Streams: [][]mem.Ref{
				{{Addr: 0x300, Kind: mem.Lock}, {Addr: 0x300, Kind: mem.Unlock}},
				nil,
			}},
		},
	}
	got := roundTrip(t, p)
	if got.Name != p.Name || got.Procs != p.Procs || len(got.Phases) != len(p.Phases) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range p.Phases {
		if got.Phases[i].Name != p.Phases[i].Name {
			t.Errorf("phase %d name %q", i, got.Phases[i].Name)
		}
		for pr := range p.Phases[i].Streams {
			a, b := p.Phases[i].Streams[pr], got.Phases[i].Streams[pr]
			if len(a) != len(b) {
				t.Fatalf("phase %d proc %d: lengths %d vs %d", i, pr, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("phase %d proc %d ref %d: %v vs %v", i, pr, j, a[j], b[j])
				}
			}
		}
	}
}

func TestIORejectsGarbage(t *testing.T) {
	if _, err := ReadProgram(strings.NewReader("not a trace")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadProgram(strings.NewReader("SCCT")); err == nil {
		t.Error("accepted truncated header")
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.WriteString("SCCT")
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := ReadProgram(&buf); err == nil {
		t.Error("accepted wrong version")
	}
}

func TestIORejectsTruncatedBody(t *testing.T) {
	p := &Program{Name: "t", Procs: 1, Phases: []Phase{
		{Name: "x", Streams: [][]mem.Ref{{{Addr: 0x100, Kind: mem.Read}}}},
	}}
	var buf bytes.Buffer
	if err := p.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadProgram(bytes.NewReader(cut)); err == nil {
		t.Error("accepted truncated body")
	}
}

// TestIOAllocatesWhatItReads: a stream's length field is untrusted, so
// a 30-byte file claiming 2^28 references (2 GB decoded) must fail on
// its short read, naming where, having allocated in proportion to the
// bytes it read rather than to the claim.
func TestIOAllocatesWhatItReads(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(traceMagic)
	// version, name length, processors, phases, phase-name length, refs
	for _, v := range []uint32{traceVersion, 0, 1, 1, 0, 1 << 28} {
		binary.Write(&b, binary.LittleEndian, v) //nolint:errcheck
	}
	b.Write([]byte{0x10, 0})
	if b.Len() != 30 {
		t.Fatalf("crafted file is %d bytes, want 30", b.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadProgram(&b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a stream shorter than its length field")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "phase 0 processor 0") {
		t.Errorf("error %q: want a short read naming phase 0 processor 0", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading 30 bytes allocated %d KB, want < 1 MB", alloc>>10)
	}
}

func TestIOInvalidProgramRejectedOnRead(t *testing.T) {
	// A program with a zero address fails Validate on read.
	p := &Program{Name: "bad", Procs: 1, Phases: []Phase{
		{Name: "x", Streams: [][]mem.Ref{{{Addr: 0, Kind: mem.Read}}}},
	}}
	var buf bytes.Buffer
	if err := p.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProgram(&buf); err == nil {
		t.Error("deserialized an invalid program without error")
	}
}
