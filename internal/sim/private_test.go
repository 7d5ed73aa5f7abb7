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

// private returns cfg on the private hierarchy.
func private(cfg sysmodel.Config) sysmodel.Config {
	cfg.Hierarchy = sysmodel.HierarchyPrivate
	return cfg
}

func TestRunPrivateRejectsBadInput(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	if _, err := Run(private(cfg), Options{}, prog(1, nil)); err == nil {
		t.Error("accepted mismatched processor count")
	}
	big := sysmodel.Config{Clusters: 16, ProcsPerCluster: 4, SCCBytes: 8192, LoadLatency: 4, Assoc: 1}
	if _, err := Run(private(big), Options{}, prog(64)); err == nil {
		t.Error("accepted 64 caches (bitmask limit is 32)")
	}
	tiny := sysmodel.Config{Clusters: 1, ProcsPerCluster: 8, SCCBytes: 64, LoadLatency: 4, Assoc: 1}
	if _, err := Run(private(tiny), Options{}, prog(8)); err == nil {
		t.Error("accepted an 8-byte private cache")
	}
}

func TestPrivateIntraClusterTransfer(t *testing.T) {
	// Proc 0 loads a line; proc 1 in the same cluster then reads it:
	// the second miss must cost IntraClusterLatency, not MemLatency.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := prog(2,
		[]mem.Ref{rd(0x100, 0)},
		[]mem.Ref{rd(0x100, 300)},
	)
	r, err := Run(private(cfg), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadStall[0] != sysmodel.MemLatency {
		t.Errorf("first miss stalled %d, want %d", r.ReadStall[0], sysmodel.MemLatency)
	}
	if r.ReadStall[1] != IntraClusterLatency {
		t.Errorf("intra-cluster miss stalled %d, want %d", r.ReadStall[1], IntraClusterLatency)
	}
	if r.Snoop.IntraClusterFetches != 1 {
		t.Errorf("IntraClusterFetches = %d, want 1", r.Snoop.IntraClusterFetches)
	}
}

func TestPrivateInterClusterStillSlow(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 1, SCCBytes: 8192, LoadLatency: 2, Assoc: 1}
	p := prog(2,
		[]mem.Ref{rd(0x100, 0)},
		[]mem.Ref{rd(0x100, 300)},
	)
	r, err := Run(private(cfg), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadStall[1] != sysmodel.MemLatency {
		t.Errorf("inter-cluster miss stalled %d, want %d", r.ReadStall[1], sysmodel.MemLatency)
	}
}

func TestPrivateIntraClusterSharingInvalidates(t *testing.T) {
	// THE structural difference from the shared cache: two processors in
	// the same cluster writing one line ping-pong it between their
	// private caches — invalidations that the SCC avoids entirely.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	mk := func() *trace.Program {
		return prog(2,
			[]mem.Ref{wr(0x100, 0), wr(0x100, 600), wr(0x100, 600)},
			[]mem.Ref{wr(0x100, 300), wr(0x100, 600), wr(0x100, 600)},
		)
	}
	priv, err := Run(private(cfg), Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if priv.Snoop.Invalidations < 4 {
		t.Errorf("private caches: %d invalidations, want ping-pong (>= 4)", priv.Snoop.Invalidations)
	}
	if shared.Snoop.Invalidations != 0 {
		t.Errorf("shared cache: %d invalidations, want 0", shared.Snoop.Invalidations)
	}
}

func TestPrivateNoBankConflicts(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	var s0, s1 []mem.Ref
	for i := 0; i < 50; i++ {
		s0 = append(s0, rd(0x100, 0))
		s1 = append(s1, rd(0x100, 0))
	}
	r, err := Run(private(cfg), Options{}, prog(2, s0, s1))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBankStall() != 0 {
		t.Errorf("private caches recorded %d bank-stall cycles", r.TotalBankStall())
	}
}

func TestPrivateSharedCapacityComparison(t *testing.T) {
	// A single processor streaming a working set larger than its private
	// slice but smaller than the whole SCC: the shared organization must
	// win (the paper's capacity argument for shared caches).
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 4, SCCBytes: 32 * 1024, LoadLatency: 4, Assoc: 1}
	mk := func() *trace.Program {
		var s []mem.Ref
		// 16 KB working set: fits the 32 KB SCC, not an 8 KB private slice.
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 1024; i++ {
				s = append(s, rd(0x100000+uint32(i*sysmodel.LineSize), 2))
			}
		}
		return prog(4, s)
	}
	priv, err := Run(private(cfg), Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if shared.Cycles >= priv.Cycles {
		t.Errorf("shared SCC (%d cycles) not faster than private slices (%d) on a big working set",
			shared.Cycles, priv.Cycles)
	}
}

func TestPrivateWriteBufferStalls(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 1, SCCBytes: 8192, LoadLatency: 2, Assoc: 1}
	var s []mem.Ref
	for i := 0; i < 4; i++ {
		s = append(s, wr(uint32(0x1000+i*sysmodel.LineSize), 0))
	}
	r, err := Run(private(cfg), Options{WriteBufferDepth: 1}, prog(1, s))
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteStall[0] == 0 {
		t.Error("depth-1 private write buffer never stalled")
	}
}

func TestPrivateDeterminism(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	mk := func() *trace.Program {
		streams := make([][]mem.Ref, 4)
		for p := 0; p < 4; p++ {
			for i := 0; i < 300; i++ {
				k := mem.Read
				if (i+p)%4 == 0 {
					k = mem.Write
				}
				streams[p] = append(streams[p], mem.Ref{
					Addr: 0x10000 + uint32((i*5+p*3)%128)*sysmodel.LineSize,
					Kind: k, Gap: uint16(i % 5),
				})
			}
		}
		return &trace.Program{Name: "det", Procs: 4,
			Phases: []trace.Phase{{Name: "x", Streams: streams}}}
	}
	a, err := Run(private(cfg), Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(private(cfg), Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Snoop.Invalidations != b.Snoop.Invalidations {
		t.Error("private hierarchy not deterministic")
	}
}

// TestWarmupOnEveryHierarchy: Options.WarmupRefs excludes the same
// leading references from the statistics of every hierarchy, and
// leaves timing alone. 8,000 reads cycle 8 KB of lines through 4 KB
// caches; after a 1,000-reference warmup the first-level tag stores
// (SCCs, private caches, or the hybrid L1s) account the other 7,000.
func TestWarmupOnEveryHierarchy(t *testing.T) {
	streams := make([][]mem.Ref, 4)
	for p := range streams {
		for i := uint32(0); i < 2000; i++ {
			streams[p] = append(streams[p], rd(0x10000+(i%512)*sysmodel.LineSize, 1))
		}
	}
	p := prog(4, streams...)
	for _, h := range hierarchies {
		cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 2, SCCBytes: 4096, LoadLatency: 3, Assoc: 1, Hierarchy: h}
		base, err := Run(cfg, Options{}, p)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(cfg, Options{WarmupRefs: 1000}, p)
		if err != nil {
			t.Fatal(err)
		}
		if warm.WarmupExcluded != 1000 {
			t.Errorf("%s: WarmupExcluded = %d, want 1000", h, warm.WarmupExcluded)
		}
		first := warm.SCC
		if h == sysmodel.HierarchyHybrid {
			first = warm.L1
		}
		var accesses uint64
		for _, cs := range first {
			accesses += cs.TotalAccesses()
		}
		if accesses != 7000 {
			t.Errorf("%s: %d first-level accesses after warmup, want 7000", h, accesses)
		}
		if warm.Cycles != base.Cycles {
			t.Errorf("%s: warmup changed timing: %d vs %d cycles", h, warm.Cycles, base.Cycles)
		}
	}
}

// TestWarmupOnMultiprog: the multiprogramming scheduler honours
// Options.WarmupRefs as Run does. Three processes of 2,000 reads each
// time-slice on two processors; after a 1,000-reference warmup the SCC
// accounts the other 5,000 reads, the context switches made during the
// warmup are excluded, and timing is unchanged. A verified run takes
// the checker through the same reset and reports the same result.
func TestWarmupOnMultiprog(t *testing.T) {
	ps := []Process{
		mkProcess("a", 0x10000, 500, 4, 1),
		mkProcess("b", 0x20000, 500, 4, 1),
		mkProcess("c", 0x30000, 500, 4, 1),
	}
	cfg := mpCfg(2, 4096)
	base, err := RunMultiprog(cfg, Options{}, ps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunMultiprog(cfg, Options{WarmupRefs: 1000}, ps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmupExcluded != 1000 {
		t.Errorf("WarmupExcluded = %d, want 1000", warm.WarmupExcluded)
	}
	if agg := warm.AggregateSCC(); agg.TotalAccesses() != 5000 {
		t.Errorf("%d SCC accesses after warmup, want 5000", agg.TotalAccesses())
	}
	if warm.Switches == 0 || warm.Switches >= base.Switches {
		t.Errorf("Switches = %d after warmup, want fewer than the whole run's %d but some", warm.Switches, base.Switches)
	}
	if warm.Cycles != base.Cycles {
		t.Errorf("warmup changed timing: %d vs %d cycles", warm.Cycles, base.Cycles)
	}
	checked, err := RunMultiprog(cfg, Options{WarmupRefs: 1000, Verify: &verify.Options{}}, ps, 2000)
	if err != nil {
		t.Fatalf("verified multiprog run with warmup: %v", err)
	}
	if !reflect.DeepEqual(checked, warm) {
		t.Error("enabling Options.Verify changed the warmed-up multiprog result")
	}
}

// TestPrivateRejectsVictimBuffer: a victim buffer attaches to an SCC,
// which the private hierarchy does not have, so asking for one is an
// error rather than a run that silently ignores it.
func TestPrivateRejectsVictimBuffer(t *testing.T) {
	_, err := Run(private(cfg2(4096)), Options{VictimEntries: 4}, sharingProg())
	if err == nil || !strings.Contains(err.Error(), "VictimEntries") {
		t.Fatalf("private run with a victim buffer: err = %v, want one naming VictimEntries", err)
	}
	for _, h := range []string{sysmodel.HierarchyShared, sysmodel.HierarchyHybrid} {
		cfg := cfg2(4096)
		cfg.Hierarchy = h
		if _, err := Run(cfg, Options{VictimEntries: 4}, sharingProg()); err != nil {
			t.Errorf("%s: %v", h, err)
		}
	}
}
