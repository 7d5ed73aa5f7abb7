package rdmodel

import (
	"fmt"
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// FuzzBuildProfile decodes a system shape and reference streams from the
// input and holds both profile builders to their naive references, the
// plain min-clock scans over naive LRU stacks: BuildProfile over a
// phased program on ppc×clusters processors, and BuildScheduledProfile
// over the same references dealt out to processes on a number of slots
// under a quantum. Every field of both profiles must match, and a few
// predictions of each must match the dense reference (see
// checkQueries).
//
// The first five bytes are the shape: ppc 1–8 and phases 1–3 (byte 0),
// clusters 1–4 and slots 1–8 (byte 1), processes 1–10 (byte 2), quantum
// 1–256 (byte 3), cap 1–64 and, with the high bit, lines just below
// trace.AddrBound, the highest a trace may reach (byte 4). The rest is
// references, two bytes each (see fuzzStreams).
func FuzzBuildProfile(f *testing.F) {
	// 8 processors per cluster on 4 clusters with tied clocks; 8 slots
	// for 9 processes under a 1-cycle quantum.
	f.Add([]byte{7, 3 | 7<<2, 8, 0, 7, 0x00, 1, 0x20, 2, 0x23, 1, 0x45, 3, 0x66, 0, 0x80, 2, 0xe1, 4, 0x02, 1})
	// Gaps, one cluster, a cap of 2 and lines just below the bound.
	f.Add([]byte{1 | 1<<3, 0, 4, 6, 1 | 0x80, 0x08, 5, 0x30, 6, 0x13, 5, 0x5b, 9, 0x8c, 6, 0x2d, 5, 0x17, 7})
	// 8 slots for 3 processes under a 2-cycle quantum: five slots idle
	// from the start, so every quantum expires with nobody waiting.
	f.Add([]byte{0, 7 << 2, 2, 1, 7, 0x20, 1, 0x20, 2, 0x20, 3, 0x20, 4, 0x20, 5, 0x28, 6, 0x40, 7, 0x20, 8, 0x20, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		shape, refs := data[:5], data[5:]
		ppc, phases := 1+int(shape[0]%8), 1+int(shape[0]>>3%3)
		clusters, slots := 1+int(shape[1]%4), 1+int(shape[1]>>2%8)
		nproc, quantum := 1+int(shape[2]%10), 1+uint64(shape[3])
		capLines, base := 1+int(shape[4]%64), uint32(1)
		if shape[4]&0x80 != 0 {
			base = highBase
		}

		procs := ppc * clusters
		streams := fuzzStreams(refs, phases*procs, base)
		prog := &trace.Program{Name: "fuzz", Procs: procs}
		for ph := 0; ph < phases; ph++ {
			prog.Phases = append(prog.Phases, trace.Phase{
				Name: fmt.Sprintf("phase%d", ph), Streams: streams[ph*procs : (ph+1)*procs]})
		}
		comp, err := trace.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildProfile(comp, clusters, capLines)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveBuildProfile(comp, clusters, capLines); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d×%d processors, %d phases, cap %d: profile differs from the naive merge", clusters, ppc, phases, capLines)
		}
		// A few queries, at sizes and associativities below and past the
		// cap, must give the dense evaluation's floats.
		var sizes []int
		for _, lines := range []int{1, 3, capLines, 2*capLines + 1, 256} {
			sizes = append(sizes, lines*sysmodel.LineSize)
		}
		assocs := []int{1, 2, 4, 8, 64}
		checkQueries(t, "BuildProfile", got, sizes, assocs)

		processes := fuzzStreams(refs, nproc, base)
		got, err = BuildScheduledProfile("fuzz", processes, slots, quantum, capLines)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveBuildScheduledProfile("fuzz", processes, slots, quantum, capLines); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d processes on %d slots, quantum %d, cap %d: profile differs from the naive scheduler", nproc, slots, quantum, capLines)
		}
		checkQueries(t, "BuildScheduledProfile", got, sizes, assocs)
	})
}

// highBase is the first of the 256 lines below trace.AddrBound, the
// highest lines fuzzStreams can reach.
const highBase = trace.AddrBound/sysmodel.LineSize - 256

// fuzzStreams deals the references encoded in data out to n streams.
// Each two bytes (a, b) are one reference on line base+b: its kind is
// a&7 (reads, writes, a lock and unlock pair, or an idle stretch), its
// compute gap a>>3&3, and it goes to the stream a>>5 past the previous
// reference's.
func fuzzStreams(data []byte, n int, base uint32) [][]mem.Ref {
	streams := make([][]mem.Ref, n)
	q := 0
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		q = (q + int(a>>5)) % n
		addr, gap := (base+uint32(b))*sysmodel.LineSize, uint16(a>>3&3)
		var refs []mem.Ref
		switch a & 7 {
		case 3, 4:
			refs = []mem.Ref{{Addr: addr, Gap: gap, Kind: mem.Write}}
		case 5:
			refs = []mem.Ref{{Addr: addr, Gap: gap, Kind: mem.Lock}, {Addr: addr, Kind: mem.Unlock}}
		case 6:
			refs = []mem.Ref{{Gap: gap, Kind: mem.Idle}}
		default:
			refs = []mem.Ref{{Addr: addr, Gap: gap, Kind: mem.Read}}
		}
		streams[q] = append(streams[q], refs...)
	}
	return streams
}
