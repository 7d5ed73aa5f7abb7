package scc

import (
	"fmt"
	"testing"
	"testing/quick"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []struct{ size, assoc, banks int }{
		{4096, 1, 0},
		{4096, 1, 3},
		{4096, 1, 512}, // more banks than lines
		{100, 1, 4},    // bad cache size
	}
	for _, c := range cases {
		if _, err := New(c.size, c.assoc, c.banks); err == nil {
			t.Errorf("New(%d,%d,%d) succeeded, want error", c.size, c.assoc, c.banks)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad bank count did not panic")
		}
	}()
	MustNew(4096, 1, 3)
}

func TestBankInterleaving(t *testing.T) {
	s := MustNew(32*1024, 1, 8)
	// Consecutive lines must land in consecutive banks.
	for i := 0; i < 16; i++ {
		addr := uint32(i * sysmodel.LineSize)
		if got := s.BankOf(addr); got != i%8 {
			t.Errorf("BankOf(line %d) = %d, want %d", i, got, i%8)
		}
	}
	// Addresses within a line map to the same bank.
	if s.BankOf(0x10) != s.BankOf(0x1f) {
		t.Error("addresses in one line map to different banks")
	}
}

func TestNoConflictOnDifferentBanks(t *testing.T) {
	s := MustNew(32*1024, 1, 8)
	r0 := s.Access(100, 0*sysmodel.LineSize, mem.Read)
	r1 := s.Access(100, 1*sysmodel.LineSize, mem.Read)
	if r0.Wait(100) != 0 || r1.Wait(100) != 0 {
		t.Errorf("same-cycle accesses to different banks waited: %d, %d", r0.Wait(100), r1.Wait(100))
	}
	if s.Stats().BankConflicts != 0 {
		t.Errorf("BankConflicts = %d, want 0", s.Stats().BankConflicts)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	s := MustNew(32*1024, 1, 8)
	// Two same-cycle accesses to lines 0 and 8: both bank 0.
	r0 := s.Access(100, 0, mem.Read)
	r1 := s.Access(100, 8*sysmodel.LineSize, mem.Read)
	if r0.Start != 100 {
		t.Errorf("first access started at %d, want 100", r0.Start)
	}
	if want := uint64(100 + sysmodel.BankAccessCycles); r1.Start != want {
		t.Errorf("conflicting access started at %d, want %d", r1.Start, want)
	}
	st := s.Stats()
	if st.BankConflicts != 1 || st.BankWaitCycles != uint64(sysmodel.BankAccessCycles) {
		t.Errorf("conflict stats = %+v", st)
	}
}

func TestBankFreesAfterAccess(t *testing.T) {
	s := MustNew(32*1024, 1, 8)
	s.Access(100, 0, mem.Read)
	r := s.Access(100+uint64(sysmodel.BankAccessCycles), 0, mem.Read)
	if r.Wait(100+uint64(sysmodel.BankAccessCycles)) != 0 {
		t.Error("access after the bank freed still waited")
	}
}

func TestHitMissPlumbing(t *testing.T) {
	s := MustNew(4096, 1, 4)
	r := s.Access(0, 0x40, mem.Read)
	if r.Hit {
		t.Error("cold access hit")
	}
	r = s.Access(10, 0x40, mem.Read)
	if !r.Hit {
		t.Error("second access missed")
	}
	if s.CacheStats().TotalMisses() != 1 {
		t.Errorf("misses = %d, want 1", s.CacheStats().TotalMisses())
	}
}

func TestEvictionPlumbing(t *testing.T) {
	s := MustNew(4096, 1, 4)
	s.Access(0, 0x0, mem.Write)
	r := s.Access(1, 4096, mem.Read) // same set+bank, conflict evict
	if r.Evicted == cache.EvictedNone || !r.EvictedDirty {
		t.Errorf("eviction not reported: %+v", r)
	}
}

func TestInvalidateAndProbe(t *testing.T) {
	s := MustNew(4096, 1, 4)
	s.Access(0, 0x40, mem.Write)
	if !s.Probe(0x40) {
		t.Error("Probe missed resident line")
	}
	present, dirty := s.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if s.Probe(0x40) {
		t.Error("line present after invalidate")
	}
}

func TestBankImbalanceEven(t *testing.T) {
	s := MustNew(32*1024, 1, 8)
	for i := 0; i < 8*100; i++ {
		s.Access(uint64(i)*2, uint32(i*sysmodel.LineSize), mem.Read)
	}
	if got := s.Stats().BankImbalance(); got != 1.0 {
		t.Errorf("BankImbalance of round-robin traffic = %v, want 1.0", got)
	}
}

func TestBankImbalanceEmpty(t *testing.T) {
	s := MustNew(32*1024, 1, 8)
	if got := s.Stats().BankImbalance(); got != 0 {
		t.Errorf("BankImbalance with no traffic = %v, want 0", got)
	}
}

// Property: placement in the banked structure equals placement in a plain
// cache of the same size — banking must affect timing only.
func TestBankingPreservesPlacementProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		s := MustNew(8192, 1, 8)
		c := cache.MustNew(8192, 1)
		now := uint64(0)
		for _, a := range addrs {
			rs := s.Access(now, a, mem.Read)
			rc := c.Access(a, mem.Read)
			if rs.Hit != rc.Hit || rs.Evicted != rc.Evicted {
				return false
			}
			now += 10 // avoid artificial bank stalls affecting nothing
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Start is never before the issue time and wait cycles are
// consistent with the conflict counter.
func TestTimingMonotoneProperty(t *testing.T) {
	f := func(addrs []uint32, gaps []uint8) bool {
		s := MustNew(8192, 1, 4)
		now := uint64(0)
		for i, a := range addrs {
			r := s.Access(now, a, mem.Read)
			if r.Start < now {
				return false
			}
			if i < len(gaps) {
				now += uint64(gaps[i] % 4)
			}
		}
		st := s.Stats()
		return (st.BankConflicts == 0) == (st.BankWaitCycles == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSCCAccess(b *testing.B) {
	s := MustNew(64*1024, 1, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(uint64(i), uint32(i*sysmodel.LineSize), mem.Read)
	}
}

func TestVictimBufferCatchesConflicts(t *testing.T) {
	// Two lines aliasing in a direct-mapped cache ping-pong; a victim
	// buffer turns the repeats into hits.
	mk := func(victims int) *SCC {
		s := MustNew(4096, 1, 4)
		s.EnableVictimBuffer(victims)
		return s
	}
	base := MustNew(4096, 1, 4)
	vic := mk(4)
	now := uint64(0)
	for i := 0; i < 50; i++ {
		for _, addr := range []uint32{0x0, 0x1000} { // same set
			base.Access(now, addr, mem.Read)
			vic.Access(now, addr, mem.Read)
			now += 10
		}
	}
	if vic.Stats().VictimHits < 90 {
		t.Errorf("victim hits = %d, want nearly all of the ~98 conflict misses", vic.Stats().VictimHits)
	}
	if base.Stats().VictimHits != 0 {
		t.Error("baseline recorded victim hits")
	}
}

func TestVictimBufferInvalidation(t *testing.T) {
	s := MustNew(4096, 1, 4)
	s.EnableVictimBuffer(4)
	s.Access(0, 0x0, mem.Write)   // dirty line
	s.Access(1, 0x1000, mem.Read) // conflict-evicts it into the buffer
	present, dirty := s.Invalidate(0x0)
	if !present || !dirty {
		t.Errorf("Invalidate of a buffered dirty line = (%v,%v), want (true,true)", present, dirty)
	}
	// Once invalidated, a re-access must miss (no stale swap-back).
	r := s.Access(2, 0x0, mem.Read)
	if r.Hit {
		t.Error("stale line served from the victim buffer after invalidation")
	}
}

func TestVictimBufferSuppressesBusEviction(t *testing.T) {
	s := MustNew(4096, 1, 4)
	s.EnableVictimBuffer(4)
	s.Access(0, 0x0, mem.Write)
	r := s.Access(1, 0x1000, mem.Read)
	if r.Evicted != cache.EvictedNone {
		t.Error("eviction into the victim buffer was reported to the bus")
	}
}

// TestVictimBufferDirtyRestore is the regression test for the dirty
// swap-back: a dirty line parked in the victim buffer and then re-read
// must come back dirty WITHOUT the restore registering as a program
// write (the old implementation issued a write Access, inflating the
// write-access count and perturbing hit statistics).
func TestVictimBufferDirtyRestore(t *testing.T) {
	s := MustNew(4096, 1, 4)
	s.EnableVictimBuffer(4)
	s.Access(0, 0x0, mem.Write)   // program write: line 0x0 dirty
	s.Access(1, 0x1000, mem.Read) // conflict-evicts 0x0 into the buffer
	r := s.Access(2, 0x0, mem.Read)
	if !r.Hit {
		t.Fatal("victim buffer did not satisfy the re-read")
	}
	cs := s.CacheStats()
	if got := cs.Accesses[mem.Write]; got != 1 {
		t.Errorf("write accesses = %d, want 1 (the swap-back must not count as a write)", got)
	}
	if got := cs.Accesses[mem.Read]; got != 2 {
		t.Errorf("read accesses = %d, want 2", got)
	}
	if got := s.Stats().VictimHits; got != 1 {
		t.Errorf("victim hits = %d, want 1", got)
	}
	// The restored line must still be dirty: an invalidation (which now
	// finds it in the tag store, not the buffer) reports writeback needed.
	present, dirty := s.Invalidate(0x0)
	if !present || !dirty {
		t.Errorf("restored line Invalidate = (%v,%v), want (true,true): dirtiness lost in swap-back",
			present, dirty)
	}
}

// TestVictimBufferFIFODisplacement: the put cursor wraps (compare-and-
// reset, not modulo) and displaces the oldest entry.
func TestVictimBufferFIFODisplacement(t *testing.T) {
	v := newVictimBuffer(2)
	v.put(10, false)
	v.put(20, true)
	v.put(30, false) // wraps: displaces line 10
	if found, _ := v.take(10); found {
		t.Error("oldest entry survived displacement")
	}
	if found, dirty := v.take(20); !found || !dirty {
		t.Errorf("take(20) = (%v,%v), want (true,true)", found, dirty)
	}
	if found, _ := v.take(30); !found {
		t.Error("newest entry missing")
	}
	// Emptied slots miss.
	if found, _ := v.take(30); found {
		t.Error("taken entry still present")
	}
}

func TestResetStats(t *testing.T) {
	s := MustNew(4096, 1, 4)
	// Two back-to-back accesses to one bank: the second conflicts.
	s.Access(0, 0x0, mem.Read)
	s.Access(0, 0x1000, mem.Read)
	st := s.Stats()
	if st.BankConflicts == 0 || st.BankAccesses[0] != 2 {
		t.Fatalf("setup: conflicts=%d bank0=%d, want a conflict on bank 0",
			st.BankConflicts, st.BankAccesses[0])
	}
	s.ResetStats()
	st = s.Stats()
	if st.BankConflicts != 0 || st.BankWaitCycles != 0 || st.VictimHits != 0 {
		t.Error("scalar stats survived ResetStats")
	}
	for b, n := range st.BankAccesses {
		if n != 0 {
			t.Errorf("bank %d access count %d after reset", b, n)
		}
	}
	// Counting resumes from zero and Stats() materializes fresh counts.
	s.Access(100, 0x0, mem.Read)
	if got := s.Stats().BankAccesses[0]; got != 1 {
		t.Errorf("bank 0 accesses after reset+1 access = %d, want 1", got)
	}
}

// BenchmarkVictimBufferTake measures the linear scan on the miss path at
// the typical buffer sizes; it backs the choice of a scan over a map.
func BenchmarkVictimBufferTake(b *testing.B) {
	for _, entries := range []int{4, 8} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			v := newVictimBuffer(entries)
			for i := 0; i < entries; i++ {
				v.put(uint32(i), false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate hit (worst slot) and miss (full scan).
				if i&1 == 0 {
					v.take(uint32(entries - 1))
					v.put(uint32(entries-1), false)
				} else {
					v.take(0xffff0000)
				}
			}
		})
	}
}
