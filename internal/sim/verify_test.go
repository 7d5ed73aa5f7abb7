package sim

import (
	"reflect"
	"strings"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
)

// sharingProg is a small two-processor program with read sharing,
// invalidating writes, a critical section and enough distinct lines to
// force evictions in a 4 KB direct-mapped SCC.
func sharingProg() *trace.Program {
	var a, b []mem.Ref
	for i := uint32(0); i < 400; i++ {
		addr := (i%300 + 1) * sysmodel.LineSize
		a = append(a, rd(addr, 1))
		b = append(b, rd(addr, 2))
		if i%5 == 0 {
			a = append(a, wr(addr, 0))
		}
		if i%50 == 0 {
			lock := uint32(0x9000)
			a = append(a,
				mem.Ref{Addr: lock, Kind: mem.Lock},
				wr(0x9100, 0),
				mem.Ref{Addr: lock, Kind: mem.Unlock})
			b = append(b,
				mem.Ref{Addr: lock, Kind: mem.Lock},
				wr(0x9100, 0),
				mem.Ref{Addr: lock, Kind: mem.Unlock})
		}
	}
	return prog(2, a, b)
}

func cfg2(sccBytes int) sysmodel.Config {
	return sysmodel.Config{
		Clusters: 2, ProcsPerCluster: 1, SCCBytes: sccBytes,
		LoadLatency: 2, Assoc: 1,
	}
}

// TestVerifyCleanRunIsTransparent is the nil-disabled contract in the
// observable direction: attaching the checker must not change a single
// number of a clean run.
func TestVerifyCleanRunIsTransparent(t *testing.T) {
	p := sharingProg()
	plain, err := Run(cfg2(4096), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(cfg2(4096), Options{Verify: &verify.Options{}}, p)
	if err != nil {
		t.Fatalf("verified run failed on clean traffic: %v", err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatal("enabling Options.Verify changed the simulation result")
	}
}

func TestVerifyDeterminism(t *testing.T) {
	p := sharingProg()
	opts := Options{Verify: &verify.Options{}, VictimEntries: 4, WarmupRefs: 100}
	r1, err := Run(cfg2(4096), opts, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg2(4096), opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("repeated verified runs are not identical")
	}
}

// TestVerifyTraceConcatenation is the metamorphic property the compiled
// trace cache relies on: doubling the program's phases must exactly
// double the executed reference count (timing may differ — the second
// pass starts warm).
func TestVerifyTraceConcatenation(t *testing.T) {
	p := sharingProg()
	doubled := &trace.Program{
		Name:   p.Name + "-x2",
		Procs:  p.Procs,
		Phases: append(append([]trace.Phase{}, p.Phases...), p.Phases...),
	}
	r1, err := Run(cfg2(4096), Options{Verify: &verify.Options{}}, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg2(4096), Options{Verify: &verify.Options{}}, doubled)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Refs != 2*r1.Refs {
		t.Fatalf("doubled program executed %d refs, want exactly 2*%d", r2.Refs, r1.Refs)
	}
}

// TestRunPrivateVerifyTransparent pins the private-hierarchy analogue of
// the nil-disabled contract: the checker attaches to the per-processor
// caches and a clean run is unchanged by it.
func TestRunPrivateVerifyTransparent(t *testing.T) {
	p := sharingProg()
	cfg := cfg2(4096)
	cfg.Hierarchy = sysmodel.HierarchyPrivate
	plain, err := RunPrivate(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := RunPrivate(cfg, Options{Verify: &verify.Options{}}, p)
	if err != nil {
		t.Fatalf("verified private run failed on clean traffic: %v", err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatal("enabling Options.Verify changed the private-hierarchy result")
	}
}

// TestVerifyCatchesMidRunCorruption assembles the system by hand, runs a
// program, then corrupts the presence table the way a coherence bug
// would (a resident line silently losing its bit) and requires the
// end-of-run audit to turn the run into an error.
func TestVerifyCatchesMidRunCorruption(t *testing.T) {
	p := sharingProg()
	opts := Options{Verify: &verify.Options{}}
	comp, err := trace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSystem(cfg2(4096), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.bus.ReserveLines(comp.MaxLineIndex() + 1)
	clock := replay(comp.Streams, 2, s.res, s.tr, 0, s.warmupReset, s.access, s)
	s.finish(clock)

	var addr uint32
	found := false
	s.sccs[0].VisitLines(func(lineIndex uint32, dirty bool) {
		if !found {
			addr = lineIndex * sysmodel.LineSize
			found = true
		}
	})
	if !found {
		t.Fatal("no resident line to corrupt")
	}
	s.bus.SetPresence(addr, 0)

	err = s.verifyFinish(comp.Refs())
	if err == nil {
		t.Fatal("audit missed the corrupted presence table")
	}
	if !strings.Contains(err.Error(), "verification failed") ||
		!strings.Contains(err.Error(), "presence bit is clear") {
		t.Fatalf("unexpected verification error: %v", err)
	}
}

// fuzzConfig maps arbitrary fuzz bytes onto a valid machine within the
// oracle's modelled envelope.
func fuzzConfig(clustersB, ppcB, sizeB, assocB uint8) sysmodel.Config {
	ppc := []int{1, 2, 4, 8}[int(ppcB)%4]
	return sysmodel.Config{
		Clusters:        int(clustersB)%4 + 1,
		ProcsPerCluster: ppc,
		// 512 B .. 4 KB: at least as many lines as the largest bank count
		// (8 procs * 4 banks), still a power-of-two set count.
		SCCBytes:    sysmodel.LineSize * (32 << (int(sizeB) % 4)),
		LoadLatency: sysmodel.ImpliedLoadLatency(ppc),
		Assoc:       1 << (int(assocB) % 2),
	}
}

// fuzzProgram deals the fuzz stream round-robin onto the processors,
// decoding each byte as one operation over a small shared footprint so
// sharing, invalidations and conflicts all occur. Locks are emitted as
// immediately-balanced acquire/release pairs, keeping the program valid
// by construction (trace.Program.Validate).
func fuzzProgram(procs int, stream []byte) *trace.Program {
	streams := make([][]mem.Ref, procs)
	for i, b := range stream {
		p := i % procs
		addr := (uint32(b)&0x3f + 1) * sysmodel.LineSize
		switch b >> 6 {
		case 0:
			streams[p] = append(streams[p], rd(addr, uint16(b&3)))
		case 1:
			streams[p] = append(streams[p], wr(addr, uint16(b&3)))
		case 2:
			streams[p] = append(streams[p], mem.Ref{Kind: mem.Idle, Gap: uint16(b)})
		default:
			lock := uint32(0x8000) + (addr&0x30)*sysmodel.LineSize
			streams[p] = append(streams[p],
				mem.Ref{Addr: lock, Kind: mem.Lock},
				wr(addr, 0),
				mem.Ref{Addr: lock, Kind: mem.Unlock})
		}
	}
	return prog(procs, streams...)
}

// FuzzSimConfig drives the verified simulator across fuzzed
// configurations and programs and holds it to three oracles at once:
// the invariant checker (any violation fails the run), determinism
// (identical reruns), and the naive map-based model (exact statistics
// match).
func FuzzSimConfig(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), uint8(0), int8(0), []byte("sccsim"))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(1), int8(-1), []byte{0x40, 0x81, 0xc2, 0x03, 0xff, 0x7e, 0xbd})
	f.Add(uint8(3), uint8(3), uint8(3), uint8(0), int8(1), []byte{0xc0, 0xc0, 0x41, 0x02})
	f.Fuzz(func(t *testing.T, clustersB, ppcB, sizeB, assocB uint8, wbDepth int8, stream []byte) {
		cfg := fuzzConfig(clustersB, ppcB, sizeB, assocB)
		p := fuzzProgram(cfg.Procs(), stream)
		opts := Options{WriteBufferDepth: int(wbDepth), Verify: &verify.Options{}}

		res, err := Run(cfg, opts, p)
		if err != nil {
			t.Fatalf("verified run failed on %v: %v", cfg, err)
		}
		again, err := Run(cfg, opts, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("non-deterministic result on %v", cfg)
		}

		oracle, err := verify.RunOracle(cfg, p, verify.OracleOptions{WriteBufferDepth: int(wbDepth)})
		if err != nil {
			t.Fatalf("oracle failed on %v: %v", cfg, err)
		}
		rs := res.VerifyStats()
		if diffs := verify.DiffRunStats(oracle, &rs); len(diffs) > 0 {
			t.Fatalf("oracle divergence on %v: %s", cfg, strings.Join(diffs, "; "))
		}
	})
}
