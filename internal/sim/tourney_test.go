package sim

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
		tr := newTourney(procs)
		leaves := make([]uint64, procs)
		for i := range leaves {
			leaves[i] = noKey
		}
		// scanMin is the smallest leaf key other than skip's.
		scanMin := func(skip int) uint64 {
			m := noKey
			for p, k := range leaves {
				if p != skip && k < m {
					m = k
				}
			}
			return m
		}
		for step := 0; step < 400; step++ {
			p := rng.Intn(procs)
			k := noKey
			switch rng.Intn(4) {
			case 0: // leave the slot empty
			case 1: // a small time range, so times often tie across processors
				k = schedKey(p, uint64(rng.Intn(4)))
			default:
				k = schedKey(p, uint64(rng.Int63n(1<<40)))
			}
			tr.set(p, k)
			leaves[p] = k
			if got, want := tr.winner(), scanMin(-1); got != want {
				t.Fatalf("procs=%d step %d: winner %#x, want %#x", procs, step, got, want)
			}
			for q := range leaves {
				if got, want := tr.runnerUp(q), scanMin(q); got != want {
					t.Fatalf("procs=%d step %d: runnerUp(%d) = %#x, want %#x", procs, step, q, got, want)
				}
			}
		}
	}
}

// TestTourneyKeyOrder pins the key packing: earlier times win, and at
// equal times the lower processor id wins.
func TestTourneyKeyOrder(t *testing.T) {
	tr := newTourney(3)
	tr.set(2, schedKey(2, 10))
	tr.set(1, schedKey(1, 10))
	tr.set(0, schedKey(0, 11))
	if w := tr.winner(); keyProc(w) != 1 || keyTime(w) != 10 {
		t.Fatalf("winner = proc %d at %d, want proc 1 at 10", keyProc(w), keyTime(w))
	}
	if r := tr.runnerUp(1); keyProc(r) != 2 || keyTime(r) != 10 {
		t.Fatalf("runner-up = proc %d at %d, want proc 2 at 10", keyProc(r), keyTime(r))
	}
	tr.set(1, noKey)
	tr.set(2, noKey)
	tr.set(0, noKey)
	if tr.winner() != noKey {
		t.Fatalf("winner of an empty tree = %#x, want noKey", tr.winner())
	}
}
