package explorer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoResolvesOnce: concurrent requesters of one key share a single
// resolution, its value or its error; a new key at a full memo resets
// it, so an evicted key resolves again.
func TestMemoResolvesOnce(t *testing.T) {
	var m memo[string, int]
	var calls atomic.Int32
	resolve := func() (int, error) {
		calls.Add(1)
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.get("k", resolve); v != 42 || err != nil {
				t.Errorf("get = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("resolve ran %d times for one key, want 1", n)
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.get("bad", func() (int, error) { calls.Add(1); return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("get of a failing key = %v, want its error", err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("a failed resolution ran again: %d resolves, want 2", n)
	}

	for i := 2; i < maxMemoEntries; i++ {
		m.get(fmt.Sprint(i), resolve)
	}
	m.get("k", resolve) // a hit at a full memo evicts nothing
	if n := calls.Load(); n != maxMemoEntries {
		t.Fatalf("%d resolves filling the memo, want %d", n, maxMemoEntries)
	}
	m.get("new", resolve)
	m.get("k", resolve)
	if n := calls.Load(); n != maxMemoEntries+2 {
		t.Fatalf("%d resolves after the memo overflowed, want %d (the evicted key resolves again)", n, maxMemoEntries+2)
	}
}
