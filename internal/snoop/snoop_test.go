package snoop

import (
	"testing"
	"testing/quick"

	"sccsim/internal/mem"
	"sccsim/internal/scc"
	"sccsim/internal/sysmodel"
)

// fakeSCC records invalidations and lets tests control presence/dirtiness.
type fakeSCC struct {
	lines map[uint32]bool // line index -> dirty
	inval []uint32
}

func newFakeSCC() *fakeSCC { return &fakeSCC{lines: make(map[uint32]bool)} }

func (f *fakeSCC) Invalidate(addr uint32) (bool, bool) {
	li := sysmodel.LineIndex(addr)
	dirty, ok := f.lines[li]
	if ok {
		delete(f.lines, li)
		f.inval = append(f.inval, li)
	}
	return ok, dirty
}

func (f *fakeSCC) hold(addr uint32, dirty bool) {
	f.lines[sysmodel.LineIndex(addr)] = dirty
}

func newBus4() (*Bus, []*fakeSCC) {
	fs := []*fakeSCC{newFakeSCC(), newFakeSCC(), newFakeSCC(), newFakeSCC()}
	invs := make([]Invalidator, len(fs))
	for i, f := range fs {
		invs[i] = f
	}
	return New(invs), fs
}

func TestNewPanicsOnBadClusterCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestFetchLatency(t *testing.T) {
	b, _ := newBus4()
	ready := b.Fetch(1000, 0, 0x40, mem.Read)
	if want := uint64(1000 + sysmodel.MemLatency); ready != want {
		t.Errorf("Fetch ready at %d, want %d", ready, want)
	}
}

func TestReadFetchSetsPresence(t *testing.T) {
	b, _ := newBus4()
	b.Fetch(0, 2, 0x40, mem.Read)
	if got := b.Present(0x40); got != 1<<2 {
		t.Errorf("presence = %b, want %b", got, 1<<2)
	}
	b.Fetch(10, 3, 0x40, mem.Read)
	if got := b.Present(0x40); got != 1<<2|1<<3 {
		t.Errorf("presence after second read = %b, want %b", got, 1<<2|1<<3)
	}
	if b.Stats().FetchesFromSCC != 1 {
		t.Errorf("FetchesFromSCC = %d, want 1 (second fetch hits cluster 2's copy)",
			b.Stats().FetchesFromSCC)
	}
}

func TestWriteFetchInvalidatesOthers(t *testing.T) {
	b, fs := newBus4()
	b.Fetch(0, 0, 0x40, mem.Read)
	b.Fetch(0, 1, 0x40, mem.Read)
	fs[0].hold(0x40, false)
	fs[1].hold(0x40, true)
	b.Fetch(100, 2, 0x40, mem.Write)
	if got := b.Present(0x40); got != 1<<2 {
		t.Errorf("presence after write fetch = %b, want only writer %b", got, 1<<2)
	}
	s := b.Stats()
	if s.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", s.Invalidations)
	}
	if s.DirtyInvalidations != 1 {
		t.Errorf("DirtyInvalidations = %d, want 1", s.DirtyInvalidations)
	}
	if s.InvalidationTxns != 1 {
		t.Errorf("InvalidationTxns = %d, want 1", s.InvalidationTxns)
	}
	if len(fs[0].inval) != 1 || len(fs[1].inval) != 1 || len(fs[2].inval) != 0 {
		t.Error("wrong SCCs were invalidated")
	}
}

func TestWriteSharedBroadcast(t *testing.T) {
	b, fs := newBus4()
	b.Fetch(0, 0, 0x80, mem.Read)
	b.Fetch(0, 1, 0x80, mem.Read)
	fs[1].hold(0x80, false)
	if !b.WriteShared(50, 0, 0x80) {
		t.Error("WriteShared to a shared line reported no transaction")
	}
	if got := b.Present(0x80); got != 1 {
		t.Errorf("presence = %b, want writer only", got)
	}
	// Now exclusive: further writes are silent.
	if b.WriteShared(60, 0, 0x80) {
		t.Error("WriteShared to an exclusive line broadcast anyway")
	}
	if b.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", b.Stats().Invalidations)
	}
}

func TestWriteSharedUnknownLine(t *testing.T) {
	b, _ := newBus4()
	if b.WriteShared(0, 1, 0xdead0) {
		t.Error("WriteShared on a never-fetched line broadcast")
	}
}

func TestEvictedClearsPresence(t *testing.T) {
	b, _ := newBus4()
	b.Fetch(0, 0, 0x40, mem.Read)
	b.Fetch(0, 1, 0x40, mem.Read)
	b.Evicted(10, 0, sysmodel.LineIndex(0x40), false)
	if got := b.Present(0x40); got != 1<<1 {
		t.Errorf("presence after evict = %b, want %b", got, 1<<1)
	}
	if b.Stats().WriteBacks != 0 {
		t.Error("clean eviction counted as write-back")
	}
	b.Evicted(20, 1, sysmodel.LineIndex(0x40), true)
	if b.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", b.Stats().WriteBacks)
	}
}

func TestNoBusContentionByDefault(t *testing.T) {
	b, _ := newBus4()
	r1 := b.Fetch(0, 0, 0x40, mem.Read)
	r2 := b.Fetch(0, 1, 0x80, mem.Read)
	if r1 != r2 {
		t.Errorf("default model serialized fetches: %d vs %d", r1, r2)
	}
	if b.Stats().BusWaitCycles != 0 {
		t.Error("bus wait recorded with Occupancy = 0")
	}
}

func TestBusContentionWhenEnabled(t *testing.T) {
	b, _ := newBus4()
	b.Occupancy = 8
	r1 := b.Fetch(0, 0, 0x40, mem.Read)
	r2 := b.Fetch(0, 1, 0x80, mem.Read)
	if want := uint64(sysmodel.MemLatency); r1 != want {
		t.Errorf("first fetch ready at %d, want %d", r1, want)
	}
	if want := uint64(8 + sysmodel.MemLatency); r2 != want {
		t.Errorf("queued fetch ready at %d, want %d", r2, want)
	}
	if b.Stats().BusWaitCycles != 8 {
		t.Errorf("BusWaitCycles = %d, want 8", b.Stats().BusWaitCycles)
	}
}

// Integration with real SCCs: a full read-share/write-invalidate round trip.
func TestBusWithRealSCCs(t *testing.T) {
	s0 := scc.MustNew(4096, 1, 4)
	s1 := scc.MustNew(4096, 1, 4)
	b := New([]Invalidator{s0, s1})

	// Both clusters read line 0x100.
	s0.Tags().Access(0x100, mem.Read)
	b.Fetch(0, 0, 0x100, mem.Read)
	s1.Tags().Access(0x100, mem.Read)
	b.Fetch(0, 1, 0x100, mem.Read)

	// Cluster 0 writes it: cluster 1's copy must die.
	s0.Tags().Access(0x100, mem.Write)
	b.WriteShared(200, 0, 0x100)
	if s1.Probe(0x100) {
		t.Error("cluster 1 still holds the line after cluster 0's write")
	}
	if s0.Probe(0x100) != true {
		t.Error("writer lost its own line")
	}
	if b.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", b.Stats().Invalidations)
	}
}

// Property: the presence mask only ever contains registered clusters, and
// after a write the writer is the sole holder.
func TestPresenceInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b, fs := newBus4()
		for _, op := range ops {
			cluster := int(op) % 4
			addr := uint32(op>>2) % 64 * sysmodel.LineSize
			kind := mem.Read
			if op&0x8000 != 0 {
				kind = mem.Write
			}
			b.Fetch(uint64(op), cluster, addr, kind)
			fs[cluster].hold(addr, kind == mem.Write)
			mask := b.Present(addr)
			if mask>>4 != 0 {
				return false // unknown cluster bit
			}
			if kind == mem.Write && mask != 1<<uint(cluster) {
				return false // writer not exclusive
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: presence table get/set round-trips across page boundaries.
func TestPresenceTableProperty(t *testing.T) {
	f := func(lines []uint32, masks []uint8) bool {
		pt := newPresenceTable()
		want := make(map[uint32]uint32)
		for i, li := range lines {
			var m uint32
			if i < len(masks) {
				m = uint32(masks[i]) & 0xf
			}
			pt.set(li, m)
			want[li] = m
		}
		for li, m := range want {
			if pt.get(li) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemBankQueueing(t *testing.T) {
	b, _ := newBus4()
	b.MemBanks = 2
	b.MemBankOccupancy = 30
	// Lines 0 and 2 both map to bank 0 (line % 2).
	r1 := b.Fetch(0, 0, 0, mem.Read)
	r2 := b.Fetch(0, 1, 2*sysmodel.LineSize, mem.Read)
	if r1 != sysmodel.MemLatency {
		t.Errorf("first fetch ready at %d", r1)
	}
	if want := uint64(30 + sysmodel.MemLatency); r2 != want {
		t.Errorf("same-bank fetch ready at %d, want %d", r2, want)
	}
	// Different bank: no queueing.
	r3 := b.Fetch(0, 2, 1*sysmodel.LineSize, mem.Read)
	if r3 != sysmodel.MemLatency {
		t.Errorf("other-bank fetch ready at %d", r3)
	}
	if b.Stats().MemBankWait != 30 {
		t.Errorf("MemBankWait = %d, want 30", b.Stats().MemBankWait)
	}
}

func TestMemBanksOffByDefault(t *testing.T) {
	b, _ := newBus4()
	r1 := b.Fetch(0, 0, 0, mem.Read)
	r2 := b.Fetch(0, 1, 0x1000, mem.Read)
	if r1 != r2 {
		t.Error("default bus serialized memory fetches")
	}
	if b.Stats().MemBankWait != 0 {
		t.Error("MemBankWait nonzero with banking disabled")
	}
}

// TestFlatPagedEquivalence drives identical operation sequences through
// a reserved (flat) bus and an unreserved (paged) bus: presence state
// and statistics must match at every step — ReserveLines is a pure
// representation change.
func TestFlatPagedEquivalence(t *testing.T) {
	flat, _ := newBus4()
	flat.ReserveLines(1 << 12)
	paged, _ := newBus4()

	ops := []struct {
		cluster int
		addr    uint32
		kind    mem.Kind
	}{
		{0, 0x40, mem.Read}, {1, 0x40, mem.Read}, {2, 0x40, mem.Write},
		{3, 0x1000, mem.Write}, {0, 0x1000, mem.Read},
		// Beyond the flat bound: exercises the paged fallback on both.
		{1, (1 << 12) * sysmodel.LineSize, mem.Write},
		{2, (1 << 12) * sysmodel.LineSize, mem.Read},
	}
	for i, op := range ops {
		now := uint64(i * 200)
		f := flat.Fetch(now, op.cluster, op.addr, op.kind)
		p := paged.Fetch(now, op.cluster, op.addr, op.kind)
		if f != p {
			t.Fatalf("op %d: ready time %d (flat) vs %d (paged)", i, f, p)
		}
		if fm, pm := flat.Present(op.addr), paged.Present(op.addr); fm != pm {
			t.Fatalf("op %d: presence %#x (flat) vs %#x (paged)", i, fm, pm)
		}
	}
	flat.WriteShared(2000, 0, 0x1000)
	paged.WriteShared(2000, 0, 0x1000)
	flat.Evicted(2100, 2, sysmodel.LineIndex(0x40), true)
	paged.Evicted(2100, 2, sysmodel.LineIndex(0x40), true)
	if *flat.Stats() != *paged.Stats() {
		t.Errorf("stats diverged:\nflat:  %+v\npaged: %+v", *flat.Stats(), *paged.Stats())
	}
}

// TestReserveLinesMigratesState: presence recorded while paged survives
// a mid-simulation switch to the flat table.
func TestReserveLinesMigratesState(t *testing.T) {
	b, _ := newBus4()
	b.Fetch(0, 0, 0x40, mem.Read)
	b.Fetch(0, 1, 0x40, mem.Read)
	before := b.Present(0x40)
	if before != 0b11 {
		t.Fatalf("setup: presence %#x, want 0b11", before)
	}
	b.ReserveLines(1 << 10)
	if got := b.Present(0x40); got != before {
		t.Errorf("presence %#x after reserve, want %#x", got, before)
	}
	// The migrated line is now served by the flat array.
	if li := sysmodel.LineIndex(0x40); b.presence.flat[li] != before {
		t.Errorf("flat[%d] = %#x, want %#x", li, b.presence.flat[li], before)
	}
	// Oversized requests are ignored, keeping whatever table exists.
	b.ReserveLines(MaxFlatLines + 1)
	if got := uint32(len(b.presence.flat)); got != 1<<10 {
		t.Errorf("flat table resized to %d by an oversized request", got)
	}
}

// TestMaybeShared pins the inlinable probe's contract: false only when
// the flat table proves no other holder; unknown lines report true.
func TestMaybeShared(t *testing.T) {
	b, _ := newBus4()
	// No flat table yet: everything is conservatively "maybe".
	if !b.MaybeShared(0x40, 0) {
		t.Error("paged-only bus claimed a line is private")
	}
	b.ReserveLines(1 << 10)
	if b.MaybeShared(0x40, 0) {
		t.Error("unfetched line inside the flat bound reported shared")
	}
	b.Fetch(0, 0, 0x40, mem.Read)
	if b.MaybeShared(0x40, 0) {
		t.Error("exclusively-held line reported shared to its holder")
	}
	if !b.MaybeShared(0x40, 1) {
		t.Error("line held by cluster 0 reported private to cluster 1")
	}
	b.Fetch(100, 1, 0x40, mem.Read)
	if !b.MaybeShared(0x40, 0) {
		t.Error("shared line reported private")
	}
	// Beyond the flat bound: conservative true even when untouched.
	if !b.MaybeShared((1<<10)*sysmodel.LineSize, 0) {
		t.Error("line beyond the flat bound reported private")
	}
	// MaybeShared == false must imply WriteShared is a no-op: the probe
	// exists so callers can skip the call, and skipping must match calling.
	b.Fetch(0, 2, 0x2040, mem.Read)
	if b.MaybeShared(0x2040, 2) {
		t.Fatal("exclusively-fetched line reported shared")
	}
	if b.WriteShared(0, 2, 0x2040) {
		t.Error("WriteShared transacted on a line the probe called private")
	}
}

// recordingVerifier captures Verifier callbacks for assertion.
type recordingVerifier struct {
	fetches, writeShareds, evicts []uint32
}

func (v *recordingVerifier) AfterFetch(now uint64, cluster int, addr uint32, kind mem.Kind) {
	v.fetches = append(v.fetches, addr)
}
func (v *recordingVerifier) AfterWriteShared(now uint64, cluster int, addr uint32) {
	v.writeShareds = append(v.writeShareds, addr)
}
func (v *recordingVerifier) AfterEvicted(now uint64, cluster int, lineIndex uint32, dirty bool) {
	v.evicts = append(v.evicts, lineIndex)
}

func TestVerifierObservesStateChanges(t *testing.T) {
	b, fs := newBus4()
	v := &recordingVerifier{}
	b.Verifier = v

	b.Fetch(0, 0, 0x40, mem.Read)
	fs[1].hold(0x40, false)
	b.Fetch(0, 1, 0x40, mem.Read)
	b.WriteShared(10, 1, 0x40) // cluster 0 holds it: broadcast, reported
	if b.WriteShared(20, 1, 0x40) {
		t.Fatal("second WriteShared transacted")
	}
	b.Evicted(30, 1, sysmodel.LineIndex(0x40), true)

	if len(v.fetches) != 2 {
		t.Errorf("verifier saw %d fetches, want 2", len(v.fetches))
	}
	if len(v.writeShareds) != 1 {
		t.Errorf("verifier saw %d write-shared broadcasts, want 1 (the early-out must not report)", len(v.writeShareds))
	}
	if len(v.evicts) != 1 || v.evicts[0] != sysmodel.LineIndex(0x40) {
		t.Errorf("verifier saw evictions %v, want the one line", v.evicts)
	}
}

func TestVisitPresenceCoversFlatAndPages(t *testing.T) {
	b, _ := newBus4()
	b.ReserveLines(64)
	b.Fetch(0, 0, 5*sysmodel.LineSize, mem.Read)    // flat
	b.Fetch(0, 1, 9000*sysmodel.LineSize, mem.Read) // paged (beyond the bound)
	got := map[uint32]uint32{}
	b.VisitPresence(func(li, mask uint32) { got[li] = mask })
	if got[5] != 1 || got[9000] != 2 || len(got) != 2 {
		t.Fatalf("VisitPresence saw %v, want lines 5 (mask 1) and 9000 (mask 2)", got)
	}
}

func TestPresenceConsistencyDetectsDuplicateState(t *testing.T) {
	b, _ := newBus4()
	b.Fetch(0, 0, 5*sysmodel.LineSize, mem.Read)
	b.ReserveLines(64)
	if err := b.PresenceConsistency(); err != nil {
		t.Fatalf("migrated table reported inconsistent: %v", err)
	}
	// Seed the bug ReserveLines' migration is guarding against: state for
	// a flat-covered line left behind in the paged map, so get (flat) and
	// a hypothetical stale reader (page) disagree. Only reachable by
	// poking the representation directly — which is the point: the
	// invariant holds through the public API and the checker proves it
	// stays held.
	page := make([]uint32, 1<<pageShift)
	page[5] = 0b10
	b.presence.pages[0] = page
	if err := b.PresenceConsistency(); err == nil {
		t.Fatal("duplicate flat/paged state not detected")
	}
}

func TestSetPresenceSeamRoundTrips(t *testing.T) {
	b, _ := newBus4()
	b.SetPresence(0x80, 0b1010)
	if got := b.Present(0x80); got != 0b1010 {
		t.Fatalf("SetPresence wrote %#b, Present read %#b", 0b1010, got)
	}
}
