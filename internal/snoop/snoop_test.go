package snoop

import (
	"reflect"
	"testing"
	"testing/quick"

	"sccsim/internal/mem"
	"sccsim/internal/scc"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
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

// Property: presence masks set through the seam read back, however far
// each set grows the table.
func TestPresenceTableProperty(t *testing.T) {
	f := func(lines []uint16, masks []uint8) bool {
		b, _ := newBus4()
		want := make(map[uint32]uint32)
		for i, li := range lines {
			var m uint32
			if i < len(masks) {
				m = uint32(masks[i]) & 0xf
			}
			addr := uint32(li) * sysmodel.LineSize
			b.SetPresence(addr, m)
			want[addr] = m
		}
		for addr, m := range want {
			if b.Present(addr) != m {
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

// TestPresenceGrowth drives the same operations through a bus at low
// lines and at lines just below trace.AddrBound, where the table grows
// to its largest size: ready times, presence masks and statistics must
// match at every step, and VisitPresence must report exactly the lines
// holding state.
func TestPresenceGrowth(t *testing.T) {
	ops := []struct {
		cluster int
		line    uint32 // offset from the base line
		kind    mem.Kind
	}{
		{0, 4, mem.Read}, {1, 4, mem.Read}, {2, 4, mem.Write},
		{3, 60, mem.Write}, {0, 60, mem.Read}, {1, 0, mem.Write}, {2, 0, mem.Read},
	}
	type outcome struct {
		ready []uint64
		masks []uint32
		stats Stats
		held  map[uint32]uint32 // line offset -> mask, from VisitPresence
		table int
	}
	run := func(base uint32) outcome {
		b, fs := newBus4()
		addr := func(off uint32) uint32 { return (base + off) * sysmodel.LineSize }
		var o outcome
		for i, op := range ops {
			o.ready = append(o.ready, b.Fetch(uint64(i*200), op.cluster, addr(op.line), op.kind))
			fs[op.cluster].hold(addr(op.line), op.kind == mem.Write)
			o.masks = append(o.masks, b.Present(addr(op.line)))
		}
		b.WriteShared(2000, 0, addr(60))
		b.Evicted(2100, 2, base+4, true)
		o.stats = *b.Stats()
		o.held = map[uint32]uint32{}
		b.VisitPresence(func(li, mask uint32) { o.held[li-base] = mask })
		o.table = len(b.presence)
		return o
	}
	top := uint32(trace.AddrBound / sysmodel.LineSize)
	low, high := run(1), run(top-64)
	if !reflect.DeepEqual(low.ready, high.ready) || !reflect.DeepEqual(low.masks, high.masks) {
		t.Errorf("ready times or masks differ:\nlow:  %v %v\nhigh: %v %v", low.ready, low.masks, high.ready, high.masks)
	}
	if low.stats != high.stats {
		t.Errorf("stats differ:\nlow:  %+v\nhigh: %+v", low.stats, high.stats)
	}
	// Line 4 was written by cluster 2, then evicted; line 60 was
	// written by cluster 3 and read by 0, whose write-shared broadcast
	// left it alone; line 0 was written by 1 and read by 2.
	want := map[uint32]uint32{0: 0b0110, 60: 0b0001}
	for _, o := range []outcome{low, high} {
		if !reflect.DeepEqual(o.held, want) {
			t.Errorf("VisitPresence saw %v, want %v", o.held, want)
		}
	}
	if high.table != int(top) {
		t.Errorf("table grew to %d lines for a line below %d, want exactly %d", high.table, top, top)
	}
	// A line on a doubling boundary lands inside the table it grows.
	b, _ := newBus4()
	for _, li := range []uint32{1 << 10, 1 << 12} {
		b.Fetch(0, 1, li*sysmodel.LineSize, mem.Read)
		if got := b.Present(li * sysmodel.LineSize); got != 0b10 {
			t.Errorf("line %d: presence %#b after a fetch by cluster 1, want 0b10", li, got)
		}
	}
}

// TestMaybeShared pins the inlinable probe's contract: true exactly when
// another cluster holds the line, so an untouched line has no holder.
func TestMaybeShared(t *testing.T) {
	b, _ := newBus4()
	if b.MaybeShared(0x40, 0) {
		t.Error("untouched line on an empty bus reported shared")
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
	// Past the table's end: an untouched line has no holder.
	if b.MaybeShared((1<<20)*sysmodel.LineSize, 0) {
		t.Error("untouched line past the table reported shared")
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

func TestSetPresenceSeamRoundTrips(t *testing.T) {
	b, _ := newBus4()
	b.SetPresence(0x80, 0b1010)
	if got := b.Present(0x80); got != 0b1010 {
		t.Fatalf("SetPresence wrote %#b, Present read %#b", 0b1010, got)
	}
}
