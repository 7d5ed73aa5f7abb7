package verify_test

import (
	"strings"
	"testing"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/scc"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/verify"
)

// rig is a hand-assembled two-cluster machine the checker audits: the
// same SCC + bus parts the simulator wires up, driven directly so tests
// can interleave legitimate traffic with injected faults.
type rig struct {
	sccs []*scc.SCC
	bus  *snoop.Bus
	ck   *verify.Checker
}

func newRig(t *testing.T, clusters int) *rig {
	t.Helper()
	r := &rig{}
	invs := make([]snoop.Invalidator, clusters)
	cls := make([]verify.Cluster, clusters)
	for i := 0; i < clusters; i++ {
		sc, err := scc.New(4096, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		r.sccs = append(r.sccs, sc)
		invs[i] = sc
		cls[i] = sc
	}
	r.bus = snoop.New(invs)
	r.ck = verify.NewChecker(&verify.Options{}, r.bus, cls, false)
	r.bus.Verifier = r.ck
	return r
}

// access drives one reference through cluster c the way the simulator
// does: bank/tag access, eviction notice, bus fetch on miss, shared-
// write invalidation on write hit.
func (r *rig) access(now uint64, c int, addr uint32, kind mem.Kind) uint64 {
	r.ck.OnAccess(c)
	start := r.sccs[c].BankStart(now, addr)
	cr := r.sccs[c].Tags().Access(addr, kind)
	if cr.Hit {
		if kind == mem.Write {
			r.bus.WriteShared(start, c, addr)
		}
		return start
	}
	if cr.Evicted != cache.EvictedNone {
		r.bus.Evicted(start, c, cr.Evicted, cr.EvictedDirty)
	}
	return r.bus.Fetch(start, c, addr, kind)
}

func TestCheckerCleanTrafficHasNoViolations(t *testing.T) {
	r := newRig(t, 2)
	now := uint64(0)
	// Read-share a line, write it from the other cluster (invalidation),
	// force evictions by walking past the 256-line cache.
	for i := uint32(0); i < 600; i++ {
		addr := (i%300 + 1) * sysmodel.LineSize
		now = r.access(now, 0, addr, mem.Read)
		now = r.access(now, 1, addr, mem.Read)
		if i%7 == 0 {
			now = r.access(now, 1, addr, mem.Write)
		}
	}
	r.ck.Audit()
	if err := r.ck.Err(); err != nil {
		t.Fatalf("clean traffic reported violations: %v", err)
	}
}

// TestCheckerCatchesSeededPresenceCorruption is the checker-detects-
// seeded-bug test: corrupt the presence table both ways (a resident
// line's bit cleared; a bit set for an absent line) and require the
// audit to flag each.
func TestCheckerCatchesSeededPresenceCorruption(t *testing.T) {
	t.Run("resident line loses its presence bit", func(t *testing.T) {
		r := newRig(t, 2)
		const addr = 5 * sysmodel.LineSize
		r.access(0, 0, addr, mem.Read)
		r.bus.SetPresence(addr, 0) // the corruption
		r.ck.Audit()
		err := r.ck.Err()
		if err == nil {
			t.Fatal("audit missed a resident line with a cleared presence bit")
		}
		if !strings.Contains(err.Error(), "presence bit is clear") {
			t.Fatalf("unexpected violation text: %v", err)
		}
	})
	t.Run("absent line gains a presence bit", func(t *testing.T) {
		r := newRig(t, 2)
		const addr = 5 * sysmodel.LineSize
		r.access(0, 0, addr, mem.Read)
		r.bus.SetPresence(addr, 0b11) // cluster 1 never fetched it
		r.ck.Audit()
		err := r.ck.Err()
		if err == nil {
			t.Fatal("audit missed a presence bit with no resident line")
		}
		if !strings.Contains(err.Error(), "the line is absent") {
			t.Fatalf("unexpected violation text: %v", err)
		}
	})
	t.Run("presence mask names a nonexistent cluster", func(t *testing.T) {
		r := newRig(t, 2)
		const addr = 5 * sysmodel.LineSize
		r.bus.SetPresence(addr, 0b100)
		r.ck.Audit()
		if err := r.ck.Err(); err == nil || !strings.Contains(err.Error(), "nonexistent clusters") {
			t.Fatalf("audit missed an out-of-range presence bit: %v", err)
		}
	})
}

func TestCheckerCatchesStaleSharerOnWrite(t *testing.T) {
	r := newRig(t, 2)
	const addr = 9 * sysmodel.LineSize
	// Cluster 1 legitimately holds the line; then its presence bit is
	// corrupted away, so cluster 0's write-fetch won't invalidate the
	// stale copy — exactly the "silently present in another cluster"
	// failure the per-transaction check exists for.
	r.access(0, 1, addr, mem.Read)
	r.bus.SetPresence(addr, 0)
	r.access(100, 0, addr, mem.Write)
	if err := r.ck.Err(); err == nil || !strings.Contains(err.Error(), "still holds a copy") {
		t.Fatalf("write-fetch past a stale sharer was not flagged: %v", err)
	}
}

// TestCheckerCatchesLockMisuse: the lock hooks hold the simulator to
// mutual exclusion — a lock changes hands only through its owner's
// release.
func TestCheckerCatchesLockMisuse(t *testing.T) {
	const lock = 0x8000
	r := newRig(t, 1)
	r.ck.OnLockAcquire(0, 0, lock)
	r.ck.OnLockRelease(10, 0, lock)
	r.ck.OnLockAcquire(20, 1, lock)
	r.ck.OnLockRelease(30, 1, lock)
	if err := r.ck.Err(); err != nil {
		t.Fatalf("a lock passed through its owner's release was flagged: %v", err)
	}
	for name, c := range map[string]struct {
		ops  func(ck *verify.Checker)
		want string
	}{
		"acquire while held": {func(ck *verify.Checker) {
			ck.OnLockAcquire(0, 0, lock)
			ck.OnLockAcquire(2, 1, lock)
		}, "that owner 0 holds"},
		"release by a non-owner": {func(ck *verify.Checker) {
			ck.OnLockAcquire(0, 0, lock)
			ck.OnLockRelease(2, 1, lock)
		}, "owner 1 released lock 0x8000 it does not hold"},
		"release of a free lock": {func(ck *verify.Checker) {
			ck.OnLockRelease(2, 0, lock)
		}, "it does not hold"},
	} {
		r := newRig(t, 1)
		c.ops(r.ck)
		if err := r.ck.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a violation naming %q", name, err, c.want)
		}
	}
}

// TestCheckerCatchesDoubleDispatch: the dispatch hook holds the
// multiprogramming scheduler to one processor per process — a process
// moves to another processor only once the one that ran it has taken
// another process.
func TestCheckerCatchesDoubleDispatch(t *testing.T) {
	r := newRig(t, 1)
	r.ck.OnDispatch(0, 0, 0)
	r.ck.OnDispatch(0, 1, 1)
	r.ck.OnDispatch(10, 0, 2) // processor 0 preempts process 0,
	r.ck.OnDispatch(20, 1, 0) // so processor 1 may take it
	if err := r.ck.Err(); err != nil {
		t.Fatalf("a process moved after its processor took another was flagged: %v", err)
	}
	r = newRig(t, 1)
	r.ck.OnDispatch(0, 0, 0)
	r.ck.OnDispatch(5, 1, 0)
	if err := r.ck.Err(); err == nil || !strings.Contains(err.Error(), "process 0 put on processor 1 while processor 0 runs it") {
		t.Fatalf("a double dispatch was not flagged: %v", err)
	}
}

func TestCheckerFinishRunConservation(t *testing.T) {
	r := newRig(t, 2)
	var refs uint64
	now := uint64(0)
	for i := uint32(0); i < 50; i++ {
		now = r.access(now, int(i%2), (i%20+1)*sysmodel.LineSize, mem.Read)
		refs++
	}
	if err := r.ck.FinishRun(verify.Final{
		Cycles:           now,
		Refs:             refs,
		ExpectedRefs:     refs,
		Cache:            []*cache.Stats{r.sccs[0].CacheStats(), r.sccs[1].CacheStats()},
		Bank:             []*scc.Stats{r.sccs[0].Stats(), r.sccs[1].Stats()},
		BankAccessCycles: sysmodel.BankAccessCycles,
	}); err != nil {
		t.Fatalf("conserving run failed FinishRun: %v", err)
	}
}

func TestCheckerFinishRunFlagsLostAccesses(t *testing.T) {
	r := newRig(t, 1)
	now := r.access(0, 0, sysmodel.LineSize, mem.Read)
	// One extra shadow access the tag store never saw: hits+misses no
	// longer equals the issued access count.
	r.ck.OnAccess(0)
	err := r.ck.FinishRun(verify.Final{
		Cycles:           now,
		Refs:             1,
		ExpectedRefs:     1,
		Cache:            []*cache.Stats{r.sccs[0].CacheStats()},
		Bank:             []*scc.Stats{r.sccs[0].Stats()},
		BankAccessCycles: sysmodel.BankAccessCycles,
	})
	if err == nil || !strings.Contains(err.Error(), "hits+misses") {
		t.Fatalf("access-conservation violation not flagged: %v", err)
	}
}

func TestCheckerFinishRunFlagsRefMismatch(t *testing.T) {
	r := newRig(t, 1)
	now := r.access(0, 0, sysmodel.LineSize, mem.Read)
	err := r.ck.FinishRun(verify.Final{
		Cycles:           now,
		Refs:             1,
		ExpectedRefs:     2,
		Cache:            []*cache.Stats{r.sccs[0].CacheStats()},
		Bank:             []*scc.Stats{r.sccs[0].Stats()},
		BankAccessCycles: sysmodel.BankAccessCycles,
	})
	if err == nil || !strings.Contains(err.Error(), "references") {
		t.Fatalf("ref-count violation not flagged: %v", err)
	}
}

func TestCheckerFinishRunFlagsOverbusyBank(t *testing.T) {
	r := newRig(t, 1)
	// Two accesses to one bank occupy it 2*BankAccessCycles; claiming the
	// run lasted zero cycles must violate the busy <= elapsed bound.
	now := r.access(0, 0, sysmodel.LineSize, mem.Read)
	now = r.access(now, 0, sysmodel.LineSize, mem.Read)
	_ = now
	err := r.ck.FinishRun(verify.Final{
		Cycles:           0, // claim a zero-length run despite the accesses
		Refs:             2,
		ExpectedRefs:     2,
		Cache:            []*cache.Stats{r.sccs[0].CacheStats()},
		Bank:             []*scc.Stats{r.sccs[0].Stats()},
		BankAccessCycles: sysmodel.BankAccessCycles,
	})
	if err == nil || !strings.Contains(err.Error(), "busy cycles") {
		t.Fatalf("bank-busy bound violation not flagged: %v", err)
	}
}

func TestCheckerMaxViolationsBoundsDetail(t *testing.T) {
	r := newRig(t, 2)
	ck := verify.NewChecker(&verify.Options{MaxViolations: 2}, r.bus, []verify.Cluster{r.sccs[0], r.sccs[1]}, false)
	for i := uint32(1); i <= 10; i++ {
		r.bus.SetPresence(i*sysmodel.LineSize, 1) // ten absent-line bits
	}
	ck.Audit()
	err := ck.Err()
	if err == nil {
		t.Fatal("no violations reported")
	}
	if !strings.Contains(err.Error(), "10 invariant violation(s)") ||
		!strings.Contains(err.Error(), "+8 more") {
		t.Fatalf("violation bounding off: %v", err)
	}
}
