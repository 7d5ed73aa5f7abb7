package sched

import (
	"math/rand"
	"testing"
)

// TestTourneyMatchesLinearScan drives the scheduler tree with random
// leaf updates — empty leaves, equal times on different processors,
// and leaf counts from 1 to 33, powers of two or not — and after every
// update compares the winner, and every processor's runner-up, against
// a naive minimum scan over the leaves.
func TestTourneyMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for procs := 1; procs <= 33; procs++ {
		tr := NewTourney(procs)
		leaves := make([]uint64, procs)
		for i := range leaves {
			leaves[i] = NoKey
		}
		// scanMin is the smallest leaf key other than skip's.
		scanMin := func(skip int) uint64 {
			m := NoKey
			for p, k := range leaves {
				if p != skip && k < m {
					m = k
				}
			}
			return m
		}
		for step := 0; step < 400; step++ {
			p := rng.Intn(procs)
			k := NoKey
			switch rng.Intn(4) {
			case 0: // leave the slot empty
			case 1: // a small time range, so times often tie across processors
				k = Key(p, uint64(rng.Intn(4)))
			default:
				k = Key(p, uint64(rng.Int63n(1<<40)))
			}
			tr.Set(p, k)
			leaves[p] = k
			if got, want := tr.Winner(), scanMin(-1); got != want {
				t.Fatalf("procs=%d step %d: winner %#x, want %#x", procs, step, got, want)
			}
			for q := range leaves {
				if got, want := tr.RunnerUp(q), scanMin(q); got != want {
					t.Fatalf("procs=%d step %d: runnerUp(%d) = %#x, want %#x", procs, step, q, got, want)
				}
			}
		}
	}
}

// TestTourneyKeyOrder pins the key packing: earlier times win, and at
// equal times the lower processor id wins.
func TestTourneyKeyOrder(t *testing.T) {
	tr := NewTourney(3)
	tr.Set(2, Key(2, 10))
	tr.Set(1, Key(1, 10))
	tr.Set(0, Key(0, 11))
	if w := tr.Winner(); KeyProc(w) != 1 || KeyTime(w) != 10 {
		t.Fatalf("winner = proc %d at %d, want proc 1 at 10", KeyProc(w), KeyTime(w))
	}
	if r := tr.RunnerUp(1); KeyProc(r) != 2 || KeyTime(r) != 10 {
		t.Fatalf("runner-up = proc %d at %d, want proc 2 at 10", KeyProc(r), KeyTime(r))
	}
	tr.Set(1, NoKey)
	tr.Set(2, NoKey)
	tr.Set(0, NoKey)
	if tr.Winner() != NoKey {
		t.Fatalf("winner of an empty tree = %#x, want NoKey", tr.Winner())
	}
}
