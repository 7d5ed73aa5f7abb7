package sim

import (
	"fmt"
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
	cfg := private(cfg2(4096))
	plain, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(cfg, Options{Verify: &verify.Options{}}, p)
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
	s, err := newSystem(cfg2(4096), opts)
	if err != nil {
		t.Fatal(err)
	}
	s.bus.ReserveLines(comp.MaxLineIndex() + 1)
	clock := replay(s, comp.Streams)

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

	_, err = s.finish(clock, comp.Refs())
	if err == nil {
		t.Fatal("audit missed the corrupted presence table")
	}
	if !strings.Contains(err.Error(), "verification failed") ||
		!strings.Contains(err.Error(), "presence bit is clear") {
		t.Fatalf("unexpected verification error: %v", err)
	}
}

// auditInclusion fails t unless the hybrid hierarchy's inclusion holds
// on s: every valid line of every L1 is held by its cluster's SCC, in
// the tag store or the victim buffer. Other hierarchies have no L1s.
func auditInclusion(t *testing.T, s *system) {
	t.Helper()
	for p, l1 := range s.l1 {
		held := make(map[uint32]bool)
		s.sccs[s.clusterOf(p)].VisitLines(func(line uint32, _ bool) { held[line] = true })
		l1.VisitLines(func(line uint32, _ bool) {
			if !held[line] {
				t.Errorf("processor %d's L1 holds line %#x, which cluster %d's SCC does not", p, line, s.clusterOf(p))
			}
		})
	}
}

// runAudited is Run, ending with auditInclusion.
func runAudited(t *testing.T, cfg sysmodel.Config, opts Options, p *trace.Program) (*Result, error) {
	t.Helper()
	comp, err := trace.Compile(p)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(cfg, opts)
	if err != nil {
		return nil, err
	}
	s.bus.ReserveLines(reserveLines(comp.MaxLineIndex(), cfg.Line()))
	res, err := s.finish(replay(s, comp.Streams), comp.Refs())
	auditInclusion(t, s)
	return res, err
}

// multiprogAudited is RunMultiprog, ending with auditInclusion.
func multiprogAudited(t *testing.T, cfg sysmodel.Config, opts Options, processes []Process, quantum uint64) (*Result, error) {
	t.Helper()
	s, err := newSystem(cfg, opts)
	if err != nil {
		return nil, err
	}
	res, err := s.runMultiprog(processes, quantum)
	auditInclusion(t, s)
	return res, err
}

// TestHybridVictimBufferKeepsInclusion is the regression test for a line
// that the victim buffer's FIFO pushes out of the SCC: it leaves without
// a bus eviction notice, and its L1 copies must leave with it. Processor
// 0 reads line A; processor 1 then reads three more lines of A's set in
// a 2-way SCC, which evicts A into the one-entry buffer and then pushes
// it out with the next eviction.
func TestHybridVictimBufferKeepsInclusion(t *testing.T) {
	cfg := sysmodel.Config{
		Clusters: 1, ProcsPerCluster: 2, SCCBytes: 4096,
		LoadLatency: sysmodel.ImpliedLoadLatency(2),
		Assoc:       2, Repl: sysmodel.ReplLRU,
		Hierarchy: sysmodel.HierarchyHybrid, L1Bytes: 1024,
	}
	const a, setStride = 0x1000, 4096 / 2
	p := prog(2,
		[]mem.Ref{rd(a, 0)},
		[]mem.Ref{rd(a+setStride, 10), rd(a+2*setStride, 0), rd(a+3*setStride, 0)})
	comp, err := trace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSystem(cfg, Options{VictimEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.bus.ReserveLines(comp.MaxLineIndex() + 1)
	replay(s, comp.Streams)
	inSCC := false
	s.sccs[0].VisitLines(func(line uint32, _ bool) { inSCC = inSCC || line == a/sysmodel.LineSize })
	if inSCC {
		t.Fatal("line A is still in the SCC: the scenario did not push it out of the victim buffer")
	}
	if s.l1[0].ProbeDM(a) {
		t.Error("processor 0's L1 still holds line A after it left the SCC")
	}
	auditInclusion(t, s)
}

// fuzzConfig maps arbitrary fuzz bytes onto a machine within the
// oracle's modelled envelope, on any of the three hierarchies, at
// associativity 1, 2 or 4 (assocB%3) with LRU or random replacement
// ((assocB/3)%2).
func fuzzConfig(clustersB, ppcB, sizeB, assocB, hierB uint8) sysmodel.Config {
	ppc := []int{1, 2, 4, 8}[int(ppcB)%4]
	return sysmodel.Config{
		Clusters:        int(clustersB)%4 + 1,
		ProcsPerCluster: ppc,
		// 512 B .. 4 KB: at least as many lines as the largest bank count
		// (8 procs * 4 banks), still a power-of-two set count.
		SCCBytes:    sysmodel.LineSize * (32 << (int(sizeB) % 4)),
		LoadLatency: sysmodel.ImpliedLoadLatency(ppc),
		Assoc:       []int{1, 2, 4}[int(assocB)%3],
		Repl:        []string{sysmodel.ReplLRU, sysmodel.ReplRandom}[int(assocB)/3%2],
		Hierarchy:   hierarchies[int(hierB)%len(hierarchies)],
	}
}

// fuzzQuantum maps a fuzz byte onto a scheduler quantum of 16 to 4096
// cycles: short enough that preemptions land inside run-ahead stretches
// and critical sections, and that a process spinning on a lock whose
// holder was preempted is itself preempted within a few hundred spins.
func fuzzQuantum(b uint8) uint64 { return 16 << (int(b) % 9) }

// fuzzProcesses turns the fuzz stream into a multiprogramming workload:
// fuzzProgram's per-processor streams for one processor more than the
// machine has, each stream one process, so the ready queue is never
// empty while every process runs and quantum expiries preempt.
func fuzzProcesses(procs int, stream []byte) ([]Process, []verify.Process) {
	p := fuzzProgram(procs+1, stream)
	processes := make([]Process, p.Procs)
	oprocs := make([]verify.Process, p.Procs)
	for i, refs := range p.Phases[0].Streams {
		name := fmt.Sprintf("fuzz%d", i)
		processes[i] = Process{Name: name, Refs: refs}
		oprocs[i] = verify.Process{Name: name, Refs: refs}
	}
	return processes, oprocs
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
// match). The same stream then runs again as a multiprogramming
// workload (fuzzProcesses) under a fuzzed quantum, held to the same
// three. On the shared and hybrid hierarchies both run once more with a
// victim buffer, which the oracle does not model: those runs answer to
// the checker and to determinism alone, and on the hybrid hierarchy to
// an end-of-run audit of L1 inclusion (auditInclusion).
func FuzzSimConfig(f *testing.F) {
	// Each seed runs on every hierarchy (hierB 0, 1, 2).
	for h := range hierarchies {
		hb := uint8(h)
		f.Add(uint8(0), uint8(1), uint8(2), uint8(0), hb, int8(0), uint8(4), []byte("sccsim"))
		f.Add(uint8(1), uint8(2), uint8(0), uint8(1), hb, int8(-1), uint8(8), []byte{0x40, 0x81, 0xc2, 0x03, 0xff, 0x7e, 0xbd})
		f.Add(uint8(3), uint8(3), uint8(3), uint8(0), hb, int8(1), uint8(2), []byte{0xc0, 0xc0, 0x41, 0x02})
		// Set-associative LRU and random tags.
		f.Add(uint8(1), uint8(1), uint8(1), uint8(2), hb, int8(2), uint8(3), []byte("set-associative tags, lru"))
		f.Add(uint8(0), uint8(2), uint8(0), uint8(5), hb, int8(0), uint8(1), []byte{0x3f, 0x7f, 0x1f, 0x5f, 0x0f, 0x4f, 0x2f, 0x6f, 0x37})
		// Locks held across a preemption: with a 16-cycle quantum the
		// lock word's read miss alone outlasts the quantum, so processes
		// are preempted holding a lock that a process on another
		// processor then spins on.
		f.Add(uint8(0), uint8(1), uint8(0), uint8(0), hb, int8(0), uint8(0), []byte{0xc0, 0xc0, 0xc0, 0xc0, 0xc0, 0xc0, 0x01, 0xc0, 0xd1, 0xc0})
		f.Add(uint8(1), uint8(1), uint8(2), uint8(1), hb, int8(1), uint8(0), []byte{0xc1, 0xc1, 0xc1, 0xc1, 0x42, 0xc1, 0x03, 0xc1})
	}
	// One processor, two processes locking one word, a 16-cycle
	// quantum: the second process must spin on the lock the preempted
	// first one holds (TestMultiprogLocksBelongToProcesses).
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int8(0), uint8(0), []byte{0xc0, 0xc0})
	// Eight processors, two processes with a critical section each and
	// seven empty ones, a 16-cycle quantum: six processors are idle
	// while the lock misses outlast the quantum, so quanta expire with
	// nobody waiting and a processor idle.
	f.Add(uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), int8(0), uint8(0), []byte{0xc1, 0xc2})
	f.Fuzz(func(t *testing.T, clustersB, ppcB, sizeB, assocB, hierB uint8, wbDepth int8, quantumB uint8, stream []byte) {
		cfg := fuzzConfig(clustersB, ppcB, sizeB, assocB, hierB)
		if cfg.Validate() != nil {
			t.Skip("configuration outside the simulator's envelope")
		}
		p := fuzzProgram(cfg.Procs(), stream)
		processes, oprocs := fuzzProcesses(cfg.Procs(), stream)
		quantum := fuzzQuantum(quantumB)
		opts := Options{WriteBufferDepth: int(wbDepth), Verify: &verify.Options{}}
		oopts := verify.OracleOptions{WriteBufferDepth: int(wbDepth)}
		run := func(o Options) (*Result, error) { return Run(cfg, o, p) }
		mrun := func(o Options) (*Result, error) { return RunMultiprog(cfg, o, processes, quantum) }
		// checked runs fn twice under opts (the checker attached) and
		// returns the result, failing on a violation or a differing rerun.
		checked := func(what string, fn func(Options) (*Result, error), o Options) *Result {
			t.Helper()
			res, err := fn(o)
			if err != nil {
				t.Fatalf("verified %s failed on %v (quantum %d): %v", what, cfg, quantum, err)
			}
			again, err := fn(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Fatalf("non-deterministic %s result on %v (quantum %d)", what, cfg, quantum)
			}
			return res
		}

		res := checked("run", run, opts)
		oracle, err := verify.RunOracle(cfg, p, oopts)
		if err != nil {
			t.Fatalf("oracle failed on %v: %v", cfg, err)
		}
		rs := res.VerifyStats()
		if diffs := verify.DiffRunStats(oracle, &rs); len(diffs) > 0 {
			t.Fatalf("oracle divergence on %v: %s", cfg, strings.Join(diffs, "; "))
		}

		mres := checked("multiprog run", mrun, opts)
		oracle, err = verify.RunOracleMultiprog(cfg, oprocs, quantum, oopts)
		if err != nil {
			t.Fatalf("multiprog oracle failed on %v (quantum %d): %v", cfg, quantum, err)
		}
		rs = mres.VerifyStats()
		if diffs := verify.DiffRunStats(oracle, &rs); len(diffs) > 0 {
			t.Fatalf("multiprog oracle divergence on %v (quantum %d): %s", cfg, quantum, strings.Join(diffs, "; "))
		}

		if cfg.HierarchyKind() != sysmodel.HierarchyPrivate {
			vopts := opts
			vopts.VictimEntries = 2
			if cfg.HierarchyKind() == sysmodel.HierarchyHybrid {
				// The buffer can push a line out of the SCC silently:
				// audit that its L1 copies went with it.
				run = func(o Options) (*Result, error) { return runAudited(t, cfg, o, p) }
				mrun = func(o Options) (*Result, error) { return multiprogAudited(t, cfg, o, processes, quantum) }
			}
			checked("victim-buffer run", run, vopts)
			checked("victim-buffer multiprog run", mrun, vopts)
		}
	})
}
