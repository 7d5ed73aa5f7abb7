package sim

import (
	"runtime"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// cfg1 is a minimal one-cluster, one-processor configuration.
func cfg1(sccBytes int) sysmodel.Config {
	return sysmodel.Config{
		Clusters: 1, ProcsPerCluster: 1, SCCBytes: sccBytes,
		LoadLatency: 2, Assoc: 1,
	}
}

// hierarchies lists every value of the hierarchy axis.
var hierarchies = []string{sysmodel.HierarchyShared, sysmodel.HierarchyPrivate, sysmodel.HierarchyHybrid}

// prog builds a single-phase program from per-processor streams.
func prog(procs int, streams ...[]mem.Ref) *trace.Program {
	for len(streams) < procs {
		streams = append(streams, nil)
	}
	return &trace.Program{
		Name:   "test",
		Procs:  procs,
		Phases: []trace.Phase{{Name: "p0", Streams: streams}},
	}
}

func rd(addr uint32, gap uint16) mem.Ref {
	return mem.Ref{Addr: addr, Kind: mem.Read, Gap: gap}
}

func wr(addr uint32, gap uint16) mem.Ref {
	return mem.Ref{Addr: addr, Kind: mem.Write, Gap: gap}
}

func TestRunRejectsMismatchedProcs(t *testing.T) {
	p := prog(2, []mem.Ref{rd(0x100, 0)}, nil)
	if _, err := Run(cfg1(4096), Options{}, p); err == nil {
		t.Error("Run accepted a 2-proc program on a 1-proc config")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	c := cfg1(4096)
	c.SCCBytes = 7
	if _, err := Run(c, Options{}, prog(1, nil)); err == nil {
		t.Error("Run accepted an invalid config")
	}
}

func TestRunRejectsInvalidProgram(t *testing.T) {
	p := prog(1, []mem.Ref{{Addr: 0, Kind: mem.Read}})
	if _, err := Run(cfg1(4096), Options{}, p); err == nil {
		t.Error("Run accepted a program with a zero address")
	}
}

func TestSingleReadMissTiming(t *testing.T) {
	// One read: issued at gap 10, misses, stalls MemLatency.
	p := prog(1, []mem.Ref{rd(0x100, 10)})
	r, err := Run(cfg1(4096), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(10 + sysmodel.MemLatency)
	if r.Cycles != want {
		t.Errorf("Cycles = %d, want %d", r.Cycles, want)
	}
	if r.ReadStall[0] != sysmodel.MemLatency {
		t.Errorf("ReadStall = %d, want %d", r.ReadStall[0], sysmodel.MemLatency)
	}
	if r.Refs != 1 {
		t.Errorf("Refs = %d, want 1", r.Refs)
	}
}

func TestHitCostsNothing(t *testing.T) {
	p := prog(1, []mem.Ref{rd(0x100, 0), rd(0x104, 5)})
	r, err := Run(cfg1(4096), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// miss at 0 -> ready 100; second ref issues at 105, hits, no stall.
	if want := uint64(sysmodel.MemLatency + 5); r.Cycles != want {
		t.Errorf("Cycles = %d, want %d", r.Cycles, want)
	}
}

func TestWriteMissIsBuffered(t *testing.T) {
	p := prog(1, []mem.Ref{wr(0x100, 0), rd(0x200, 0)})
	r, err := Run(cfg1(4096), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// The write miss does not stall; the read miss issues at cycle 1
	// (bank busy until then? different bank) and stalls 100.
	if r.WriteStall[0] != 0 {
		t.Errorf("WriteStall = %d, want 0 (buffered)", r.WriteStall[0])
	}
	if r.Cycles >= 2*sysmodel.MemLatency {
		t.Errorf("Cycles = %d; write miss appears serialized with read miss", r.Cycles)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	// Depth-1 write buffer: the second write miss must wait for the first.
	var refs []mem.Ref
	refs = append(refs, wr(0x100, 0), wr(0x200, 0), wr(0x300, 0))
	p := prog(1, refs)
	r, err := Run(cfg1(4096), Options{WriteBufferDepth: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteStall[0] == 0 {
		t.Error("depth-1 write buffer never stalled on three write misses")
	}
	rInf, err := Run(cfg1(4096), Options{WriteBufferDepth: -1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rInf.WriteStall[0] != 0 {
		t.Errorf("infinite write buffer stalled %d cycles", rInf.WriteStall[0])
	}
	if rInf.Cycles >= r.Cycles {
		t.Errorf("infinite buffer (%d cycles) not faster than depth-1 (%d)", rInf.Cycles, r.Cycles)
	}
}

func TestIdleRefAdvancesClockOnly(t *testing.T) {
	p := prog(1, []mem.Ref{{Kind: mem.Idle, Gap: 500}})
	r, err := Run(cfg1(4096), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 500 {
		t.Errorf("Cycles = %d, want 500", r.Cycles)
	}
	if r.Refs != 0 {
		t.Errorf("Refs = %d, want 0", r.Refs)
	}
	if s := r.AggregateSCC(); s.TotalAccesses() != 0 {
		t.Errorf("Idle ref touched the cache: %d accesses", s.TotalAccesses())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Proc 0 computes 1000 cycles; proc 1 computes 10. After the phase
	// both must be at 1000, and proc 1 logs ~990 barrier wait.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := &trace.Program{
		Name: "barrier", Procs: 2,
		Phases: []trace.Phase{
			{Name: "a", Streams: [][]mem.Ref{
				{{Kind: mem.Idle, Gap: 1000}},
				{{Kind: mem.Idle, Gap: 10}},
			}},
			{Name: "b", Streams: [][]mem.Ref{
				{{Kind: mem.Idle, Gap: 10}},
				{{Kind: mem.Idle, Gap: 10}},
			}},
		},
	}
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 1010 {
		t.Errorf("Cycles = %d, want 1010", r.Cycles)
	}
	if r.BarrierWait[1] != 990 {
		t.Errorf("BarrierWait[1] = %d, want 990", r.BarrierWait[1])
	}
	if len(r.PhaseCycles) != 2 || r.PhaseCycles[0] != 1000 || r.PhaseCycles[1] != 10 {
		t.Errorf("PhaseCycles = %v, want [1000 10]", r.PhaseCycles)
	}
}

func TestIntraClusterSharingNoInvalidation(t *testing.T) {
	// Two processors in ONE cluster write the same line: a shared cache
	// holds a single copy, so there must be zero invalidations. This is
	// the paper's central structural property.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := prog(2,
		[]mem.Ref{wr(0x100, 0), wr(0x100, 50), wr(0x100, 50)},
		[]mem.Ref{wr(0x100, 25), wr(0x100, 50), wr(0x100, 50)},
	)
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snoop.Invalidations != 0 {
		t.Errorf("intra-cluster sharing caused %d invalidations, want 0", r.Snoop.Invalidations)
	}
}

func TestInterClusterWriteInvalidates(t *testing.T) {
	// Two single-processor clusters ping-pong writes on one line.
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 1, SCCBytes: 8192, LoadLatency: 2, Assoc: 1}
	p := prog(2,
		[]mem.Ref{wr(0x100, 0), wr(0x100, 600)},
		[]mem.Ref{wr(0x100, 300), wr(0x100, 600)},
	)
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snoop.Invalidations < 2 {
		t.Errorf("ping-pong writes caused %d invalidations, want >= 2", r.Snoop.Invalidations)
	}
}

func TestIntraClusterPrefetching(t *testing.T) {
	// Two processors in the SAME cluster walk the same region at the
	// same pace: whoever reaches a line first fetches it and the other
	// hits — the prefetching effect the paper credits for Barnes-Hut's
	// superlinear speedup. Compare against the same two processors
	// walking disjoint regions.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 64 * 1024, LoadLatency: 3, Assoc: 1}
	walk := func(base uint32) []mem.Ref {
		var s []mem.Ref
		for i := 0; i < 1000; i++ {
			s = append(s, rd(base+uint32(i*sysmodel.LineSize), 2))
		}
		return s
	}
	shared, err := Run(cfg, Options{}, prog(2, walk(0x10000), walk(0x10000)))
	if err != nil {
		t.Fatal(err)
	}
	disjoint, err := Run(cfg, Options{}, prog(2, walk(0x10000), walk(0x20000)))
	if err != nil {
		t.Fatal(err)
	}
	sm := shared.AggregateSCC().Misses[mem.Read]
	dm := disjoint.AggregateSCC().Misses[mem.Read]
	if sm > 1100 {
		t.Errorf("shared-walk misses = %d, want ~1000 (each line fetched once)", sm)
	}
	if dm < 1900 {
		t.Errorf("disjoint-walk misses = %d, want ~2000", dm)
	}
	if shared.Cycles >= disjoint.Cycles {
		t.Errorf("shared walk (%d cycles) not faster than disjoint (%d): prefetching absent",
			shared.Cycles, disjoint.Cycles)
	}
}

func TestDestructiveInterference(t *testing.T) {
	// Two processors in one cluster loop over DISJOINT regions that
	// collide in a small direct-mapped SCC: the miss rate must be much
	// higher than either processor alone would see.
	mk := func(procs int) *trace.Program {
		streams := make([][]mem.Ref, procs)
		for p := 0; p < procs; p++ {
			// Each proc loops over 128 lines (2 KB); regions are 4 KB
			// apart so in a 4 KB cache they map onto the same sets.
			base := uint32(0x10000 + p*4096)
			for pass := 0; pass < 20; pass++ {
				for i := 0; i < 128; i++ {
					streams[p] = append(streams[p], rd(base+uint32(i*sysmodel.LineSize), 3))
				}
			}
		}
		return &trace.Program{Name: "interfere", Procs: procs,
			Phases: []trace.Phase{{Name: "x", Streams: streams}}}
	}

	cfgA := sysmodel.Config{Clusters: 1, ProcsPerCluster: 1, SCCBytes: 4096, LoadLatency: 2, Assoc: 1}
	rA, err := Run(cfgA, Options{}, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	cfgB := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 4096, LoadLatency: 3, Assoc: 1}
	rB, err := Run(cfgB, Options{}, mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if rA.ReadMissRate() > 0.05 {
		t.Errorf("solo miss rate = %.3f, want cold-misses only", rA.ReadMissRate())
	}
	if rB.ReadMissRate() < 0.5 {
		t.Errorf("conflicting procs miss rate = %.3f, want interference thrashing", rB.ReadMissRate())
	}
}

func TestBankConflictAccounting(t *testing.T) {
	// Two procs hammer the same bank (same line) simultaneously.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	var s0, s1 []mem.Ref
	for i := 0; i < 100; i++ {
		s0 = append(s0, rd(0x100, 0))
		s1 = append(s1, rd(0x100, 0))
	}
	r, err := Run(cfg, Options{}, prog(2, s0, s1))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBankStall() == 0 {
		t.Error("no bank stalls recorded for same-bank hammering")
	}
	if r.SCCBank[0].BankConflicts == 0 {
		t.Error("SCC bank stats show no conflicts")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	mk := func() *trace.Program {
		streams := make([][]mem.Ref, 4)
		for p := 0; p < 4; p++ {
			for i := 0; i < 500; i++ {
				addr := uint32(0x10000 + ((i*7+p*13)%256)*sysmodel.LineSize)
				k := mem.Read
				if (i+p)%5 == 0 {
					k = mem.Write
				}
				streams[p] = append(streams[p], mem.Ref{Addr: addr, Kind: k, Gap: uint16(i % 7)})
			}
		}
		return &trace.Program{Name: "det", Procs: 4,
			Phases: []trace.Phase{{Name: "x", Streams: streams}}}
	}
	r1, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Snoop.Invalidations != r2.Snoop.Invalidations {
		t.Errorf("simulation not deterministic: %d/%d vs %d/%d cycles/invalidations",
			r1.Cycles, r1.Snoop.Invalidations, r2.Cycles, r2.Snoop.Invalidations)
	}
}

func TestResultAggregation(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 1, SCCBytes: 4096, LoadLatency: 2, Assoc: 1}
	p := prog(2, []mem.Ref{rd(0x100, 0)}, []mem.Ref{rd(0x200, 0)})
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	agg := r.AggregateSCC()
	if agg.Accesses[mem.Read] != 2 || agg.Misses[mem.Read] != 2 {
		t.Errorf("aggregate = %+v", agg)
	}
	if r.ReadMissRate() != 1.0 {
		t.Errorf("ReadMissRate = %v, want 1.0", r.ReadMissRate())
	}
	if r.TotalReadStall() != 2*sysmodel.MemLatency {
		t.Errorf("TotalReadStall = %d", r.TotalReadStall())
	}
}

// TestResultsDoNotRetainMachine: a result copies its statistics out of
// the machine, so a kept result does not keep the run's tag stores,
// bank state and presence table alive. With 512 KB caches on every
// hierarchy, eight kept results must retain under 64 KB apiece; when
// results pointed into the machine each held over 1.5 MB of tags.
func TestResultsDoNotRetainMachine(t *testing.T) {
	streams := make([][]mem.Ref, 4)
	for p := range streams {
		for i := uint32(1); i <= 64; i++ {
			streams[p] = append(streams[p], rd(i*sysmodel.LineSize, 1), wr(i*sysmodel.LineSize, 1))
		}
	}
	p := prog(4, streams...)
	for _, h := range hierarchies {
		cfg := sysmodel.Axes{Hierarchy: h}.Apply(sysmodel.Default(1, 512<<10))
		// The first run compiles the trace onto p; keep that out of the
		// measurement.
		if _, err := Run(cfg, Options{}, p); err != nil {
			t.Fatal(err)
		}
		const kept = 8
		before := heapAfterGC()
		results := make([]*Result, kept)
		for i := range results {
			r, err := Run(cfg, Options{}, p)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = r
		}
		after := heapAfterGC()
		runtime.KeepAlive(results)
		if per := (after - before) / kept; per >= 64<<10 {
			t.Errorf("%s: each kept result retains %d KB, want < 64 KB", h, per>>10)
		}
	}
}

// heapAfterGC returns the live heap in bytes after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestWarmupResetsStatistics(t *testing.T) {
	// A stream whose first half is cold misses and second half is hits:
	// with warmup set past the cold section, reported miss rate is ~0.
	var refs []mem.Ref
	for i := 0; i < 64; i++ {
		refs = append(refs, rd(uint32(0x10000+i*sysmodel.LineSize), 1))
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 64; i++ {
			refs = append(refs, rd(uint32(0x10000+i*sysmodel.LineSize), 1))
		}
	}
	p := prog(1, refs)
	base, err := Run(cfg1(64*1024), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg1(64*1024), Options{WarmupRefs: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	if base.ReadMissRate() < 0.2 {
		t.Errorf("whole-run miss rate %.3f, want cold section visible", base.ReadMissRate())
	}
	if warm.ReadMissRate() != 0 {
		t.Errorf("post-warmup miss rate %.3f, want 0", warm.ReadMissRate())
	}
	if warm.WarmupExcluded != 64 {
		t.Errorf("WarmupExcluded = %d, want 64", warm.WarmupExcluded)
	}
	if warm.Cycles != base.Cycles {
		t.Errorf("warmup changed timing: %d vs %d", warm.Cycles, base.Cycles)
	}
}
