package explorer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// unitMemo is a memo whose int values are charged that many
// memoMinCharge units, under a budget of four units.
func unitMemo() *memo[string, int] {
	return &memo[string, int]{budget: 4 * memoMinCharge, minCharge: memoMinCharge, size: func(v int) int64 { return int64(v) * memoMinCharge }}
}

// held returns the keys m holds, most recently used first, after
// checking that its list, its map and its byte count agree.
func held(t *testing.T, m *memo[string, int]) []string {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []string
	var bytes int64
	for e := m.lru.next; e != nil && e != &m.lru; e = e.next {
		if m.entries[e.key] != e {
			t.Fatalf("listed entry %q is not the map's", e.key)
		}
		keys = append(keys, e.key)
		bytes += e.charge
	}
	if len(keys) != len(m.entries) || bytes != m.bytes {
		t.Fatalf("list holds %d entries and %d bytes, map %d entries, memo %d bytes",
			len(keys), bytes, len(m.entries), m.bytes)
	}
	return keys
}

func sameKeys(a []string, b ...string) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// TestMemoResolvesOnce: concurrent requesters of one key share a single
// resolution, its value or its error.
func TestMemoResolvesOnce(t *testing.T) {
	m := unitMemo()
	var calls atomic.Int32
	resolve := func() (int, error) {
		calls.Add(1)
		return 1, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _, err := m.get("k", resolve); v != 1 || err != nil {
				t.Errorf("get = %d, %v; want 1, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("resolve ran %d times for one key, want 1", n)
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, _, err := m.get("bad", func() (int, error) { calls.Add(1); return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("get of a failing key = %v, want its error", err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("a failed resolution ran again: %d resolves, want 2", n)
	}
}

// TestMemoPeek: peek returns a resolved value and moves its entry to
// the front; it never resolves a key, adds an entry, or returns a
// failed resolution.
func TestMemoPeek(t *testing.T) {
	m := unitMemo()
	if _, ok := m.peek("a"); ok || len(held(t, m)) != 0 {
		t.Fatal("peek of an absent key found it or added it")
	}
	for _, k := range []string{"a", "b"} {
		m.get(k, func() (int, error) { return 1, nil })
	}
	if v, ok := m.peek("a"); !ok || v != 1 {
		t.Fatalf("peek(a) = %d, %v; want 1, true", v, ok)
	}
	if keys := held(t, m); !sameKeys(keys, "a", "b") {
		t.Fatalf("held %v, want [a b]: a peek moves its entry to the front", keys)
	}
	m.get("bad", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := m.peek("bad"); ok {
		t.Fatal("peek returned a failed resolution")
	}
}

// TestMemoEvictsLeastRecentlyUsed: a resolution past the budget evicts
// from the back, and a hit moves its entry to the front.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := unitMemo()
	get := func(key string, v int) int {
		t.Helper()
		got, evicted, err := m.get(key, func() (int, error) { return v, nil })
		if got != v || err != nil {
			t.Fatalf("get(%q) = %d, %v; want %d", key, got, err, v)
		}
		return evicted
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if n := get(k, 1); n != 0 {
			t.Fatalf("filling the budget evicted %d entries", n)
		}
	}
	get("a", 1) // a hit: a is now the most recently used
	if n := get("e", 1); n != 1 {
		t.Fatalf("one unit past the budget evicted %d entries, want 1", n)
	}
	if keys := held(t, m); !sameKeys(keys, "e", "a", "d", "c") {
		t.Fatalf("held %v, want [e a d c]: b, the least recently used, goes first", keys)
	}
	if n := get("f", 2); n != 2 {
		t.Fatalf("two units past the budget evicted %d entries, want 2", n)
	}
	if keys := held(t, m); !sameKeys(keys, "f", "e", "a") {
		t.Fatalf("held %v, want [f e a]", keys)
	}
}

// TestMemoKeepsResolvingEntries: an entry whose resolution is still
// running is never evicted, however old, and still resolves once; when
// it lands, older resolved entries make room for it.
func TestMemoKeepsResolvingEntries(t *testing.T) {
	m := unitMemo()
	var calls atomic.Int32
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	slow := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 1, nil
	}
	go func() {
		defer close(done)
		if v, _, err := m.get("slow", slow); v != 1 || err != nil {
			t.Errorf("slow get = %d, %v; want 1, nil", v, err)
		}
	}()
	<-started
	for i := 0; i < 8; i++ {
		m.get(fmt.Sprint(i), func() (int, error) { return 1, nil })
	}
	if keys := held(t, m); !sameKeys(keys, "7", "6", "5", "4", "slow") {
		t.Fatalf("held %v while slow resolves, want [7 6 5 4 slow]", keys)
	}
	close(release)
	<-done
	if keys := held(t, m); !sameKeys(keys, "7", "6", "5", "slow") {
		t.Fatalf("held %v once slow resolved, want [7 6 5 slow]", keys)
	}
	if v, _, _ := m.get("slow", slow); v != 1 || calls.Load() != 1 {
		t.Fatalf("slow resolved %d times, want 1", calls.Load())
	}
}

// TestMemoOversizedValue: a value larger than the whole budget evicts
// everything else and is kept alone until the next insertion.
func TestMemoOversizedValue(t *testing.T) {
	m := unitMemo()
	for _, k := range []string{"a", "b"} {
		m.get(k, func() (int, error) { return 1, nil })
	}
	if _, n, _ := m.get("big", func() (int, error) { return 9, nil }); n != 2 {
		t.Fatalf("an oversized value evicted %d entries, want 2", n)
	}
	if keys := held(t, m); !sameKeys(keys, "big") || m.heldBytes() != 9*memoMinCharge {
		t.Fatalf("held %v (%d bytes), want big alone", keys, m.heldBytes())
	}
	if _, n, _ := m.get("c", func() (int, error) { return 1, nil }); n != 1 {
		t.Fatalf("the next insertion evicted %d entries, want 1", n)
	}
	if keys := held(t, m); !sameKeys(keys, "c") {
		t.Fatalf("held %v, want [c]", keys)
	}
}

// TestMemoBoundsFailuresAndResets: every failed resolution is charged
// memoMinCharge, so failures cannot grow the memo past its budget; a
// reset returns the byte count to zero and a key resolves again.
func TestMemoBoundsFailuresAndResets(t *testing.T) {
	m := unitMemo()
	boom := errors.New("boom")
	for i := 0; i < 100; i++ {
		m.get(fmt.Sprint("bad", i), func() (int, error) { return 0, boom })
	}
	if keys := held(t, m); len(keys) != 4 || m.heldBytes() != m.budget {
		t.Fatalf("100 failures left %d entries and %d bytes, want 4 and %d", len(keys), m.heldBytes(), m.budget)
	}

	m.reset()
	if keys := held(t, m); len(keys) != 0 || m.heldBytes() != 0 {
		t.Fatalf("reset left %v (%d bytes) reachable", keys, m.heldBytes())
	}
	if v, _, err := m.get("bad99", func() (int, error) { return 2, nil }); v != 2 || err != nil {
		t.Fatalf("get after reset = %d, %v; want a fresh resolution", v, err)
	}
	if keys := held(t, m); !sameKeys(keys, "bad99") || m.heldBytes() != 2*memoMinCharge {
		t.Fatalf("held %v (%d bytes) after reset, want [bad99] (2 units)", keys, m.heldBytes())
	}
}

// TestMemoConcurrentEviction: concurrent gets over more keys than the
// budget holds, each evicting as it resolves, always see their key's
// value, and leave the list, the map and the byte count consistent and
// within the budget. Run under -race by make race-obs.
func TestMemoConcurrentEviction(t *testing.T) {
	m := unitMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % 13
				want := 1 + k%2
				v, _, err := m.get(fmt.Sprint(k), func() (int, error) { return want, nil })
				if v != want || err != nil {
					t.Errorf("get(%d) = %d, %v; want %d", k, v, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	held(t, m)
	if b := m.heldBytes(); b > m.budget {
		t.Fatalf("memo holds %d bytes, over its %d-byte budget", b, m.budget)
	}
}

// TestTraceChargeIsCapacity: the trace cache charges a program the
// capacity of its streams, which is what they hold, and no generator
// reserves far more than it fills, however unevenly its work spreads
// over 32 processors (Cholesky's factor schedule).
func TestTraceChargeIsCapacity(t *testing.T) {
	for _, w := range []Workload{BarnesHut, MP3D, Cholesky} {
		for _, procs := range []int{4, 32} {
			p, err := GenerateParallel(w, procs, QuickScale())
			if err != nil {
				t.Fatal(err)
			}
			var refs, slots int64
			for _, ph := range p.Phases {
				for _, st := range ph.Streams {
					refs += int64(len(st))
					slots += int64(cap(st))
				}
			}
			if got := p.HeapBytes(); got != 8*slots {
				t.Errorf("%s at %d processors: HeapBytes %d, want 8 B x %d slots", w, procs, got, slots)
			}
			if slots >= 2*refs {
				t.Errorf("%s at %d processors: streams hold %d slots for %d references", w, procs, slots, refs)
			}
		}
	}
}
