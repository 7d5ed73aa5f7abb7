// Package sched is the merge-order primitive both backends share: a
// priority queue over processors keyed by virtual time, with no cache
// model in it. The exact simulator's replay loops (sim.replay,
// sim.RunMultiprog) and the analytic model's profile builders
// (rdmodel.BuildProfile, rdmodel.BuildScheduledProfile) all interleave
// per-processor streams in the same (time, id) order through it.
package sched

import "sccsim/internal/sysmodel"

// Tourney is a tournament (winner) tree with one leaf per processor. A
// leaf holds its processor's key — the next issue time in the high
// bits, the processor id in the low idBits, so one word compare orders
// by time and breaks ties by lowest id — or NoKey while the processor
// has nothing scheduled. Every internal node holds the smaller of its
// children, so the root is the next processor to issue. Keys are
// unique, so this is the order any exact priority queue over the same
// keys produces.
//
// The packing caps issue times at 2^56 cycles (about 2.5 billion years
// at the paper's clock) and processor counts at 1<<idBits, which
// sysmodel.Config.Validate enforces as MaxProcs; the profile builders
// refuse more processors per merge the same way.
type Tourney struct {
	// node[1] is the root and node[i]'s children are node[2i] and
	// node[2i+1]; processor p's leaf is node[len(node)/2+p]. The leaf
	// count is rounded up to a power of two, the padding leaves NoKey.
	node []uint64
}

const idBits = 8

// The scheduler must be able to name every processor Validate admits:
// this constant is negative, a compile error, if MaxProcs > 1<<idBits.
const _ = uint(1<<idBits - sysmodel.MaxProcs)

// NoKey is an empty leaf: above every real key, which reaches 2^64-1
// only at the 2^56-cycle time cap.
const NoKey = ^uint64(0)

// NewTourney returns a tree of procs empty leaves.
func NewTourney(procs int) Tourney {
	n := 1
	for n < procs {
		n <<= 1
	}
	t := Tourney{node: make([]uint64, 2*n)}
	for i := range t.node {
		t.node[i] = NoKey
	}
	return t
}

// Key packs processor p issuing at time t into a key.
func Key(p int, t uint64) uint64 { return t<<idBits | uint64(p) }

// KeyProc and KeyTime unpack a key.
func KeyProc(k uint64) int    { return int(k & (1<<idBits - 1)) }
func KeyTime(k uint64) uint64 { return k >> idBits }

// Winner returns the smallest key, or NoKey when no leaf is scheduled.
func (t *Tourney) Winner() uint64 { return t.node[1] }

// Set replaces processor p's key (NoKey unschedules it) and replays the
// matches on its path to the root.
func (t *Tourney) Set(p int, k uint64) {
	i := len(t.node)/2 + p
	t.node[i] = k
	for ; i > 1; i >>= 1 {
		k = min(k, t.node[i^1])
		t.node[i>>1] = k
	}
}

// RunnerUp returns the smallest key outside processor p's leaf: the
// least of the siblings on p's path to the root. While p is the winner
// this is the second-smallest key, so p stays the winner exactly while
// its own key is below it — the bound of a run-ahead stretch.
func (t *Tourney) RunnerUp(p int) uint64 {
	r := NoKey
	for i := len(t.node)/2 + p; i > 1; i >>= 1 {
		r = min(r, t.node[i^1])
	}
	return r
}
