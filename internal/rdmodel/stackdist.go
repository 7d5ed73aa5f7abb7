package rdmodel

import (
	"math/bits"

	"sccsim/internal/mem"
	"sccsim/internal/sched"
	"sccsim/internal/sysmodel"
)

// tracker computes LRU stack distances (reuse distances) over a stream
// of cache-line indices, capped at cap: an access's distance is the
// number of *distinct* other lines touched since the previous access to
// the same line, or distFar when that count is at least cap, or
// distCold on the first-ever access. Distances below the cap are exact.
//
// The classic algorithm (Bennett & Kruskal): give every access a time
// slot, keep one live slot per tracked line (its last access), and the
// distance of a re-access is the number of live slots after the line's
// own. Live slots are a bitmap. A distance that starts in one of the
// most recent words is a popcount over the few words after it; an
// older one comes from a Fenwick tree over the older words' popcounts
// in O(log(slots/64)). Time slots grow without bound, so the tracker
// compacts when they run out: it keeps only the cap most-recently-used
// lines (any older line would report distFar anyway), renumbers their
// slots densely from zero in slot order, and rebuilds the tree. With
// slots = 4*cap the compaction cost is amortized over at least 3*cap
// accesses, keeping the whole pass O(N log cap).
//
// One tracker serves every pass of a profile build: reset returns it
// to empty between independent streams.
type tracker struct {
	cap int
	// t is the next time slot to assign, in [0, len(lineAt)].
	t int
	// live counts the tracked lines, i.e. the set bits of words.
	live int
	// words is the live-slot bitmap: bit s&63 of words[s>>6] is set
	// when slot s is a tracked line's last access.
	words []uint64
	// tree is a Fenwick tree (1-indexed) over the popcounts of the old
	// words: those more than recentWords below the open word, the one
	// holding slot t-1. The open word and the recent ones below it are
	// counted from the bitmap alone, so neither assigning a slot nor
	// re-touching a recent line updates the tree. A word joins the tree
	// when t moves recentWords+1 words past it.
	tree []int32
	// lineAt[s] is the line whose last access is live slot s.
	lineAt []uint32
	// state is indexed by line: 0 never accessed, -1 accessed but aged
	// out by compaction, s+1 tracked with its last access at slot s.
	state []int32
	// touched lists every line whose state is nonzero, so that reset
	// costs the footprint rather than the line-index range.
	touched []uint32
}

// Sentinel distances returned by access alongside the exact ones.
const (
	// distFar: the reuse distance is >= cap (exact value not tracked).
	distFar = -1
	// distCold: first-ever access to the line (a compulsory miss at any
	// cache size).
	distCold = -2
)

// maxDirectLines bounds the tracker's direct-indexed line state at
// 1<<22 lines, the bound snoop.MaxFlatLines sets for the simulator's
// presence table. Streams touching higher line indices are renamed to
// dense ids first (see denseStreams).
const maxDirectLines = 1 << 22

// recentWords is how many bitmap words below the open word stay out of
// the Fenwick tree (see tracker.tree). Most reuses in the paper's
// traces are short, so most distances are a scan of at most
// recentWords+1 words and most re-touches skip the tree entirely.
const recentWords = 16

// newTracker returns an empty tracker for line indices below lines.
func newTracker(capLines, lines int) *tracker {
	if capLines < 1 {
		capLines = 1
	}
	slots := 4 * capLines
	nw := (slots + 63) / 64
	return &tracker{
		cap:    capLines,
		words:  make([]uint64, nw),
		tree:   make([]int32, nw+1),
		lineAt: make([]uint32, slots),
		state:  make([]int32, lines),
	}
}

// reset forgets every access, as if the tracker were new.
func (tk *tracker) reset() {
	for _, ln := range tk.touched {
		tk.state[ln] = 0
	}
	tk.touched = tk.touched[:0]
	clear(tk.words)
	clear(tk.tree)
	tk.t, tk.live = 0, 0
}

// access records a reference to line and returns its reuse distance:
// an exact value in [0, cap), or distFar, or distCold.
func (tk *tracker) access(line uint32) int {
	if tk.t == len(tk.lineAt) {
		tk.compact()
	}
	s := tk.t
	if s&63 == 0 && s >= (recentWords+1)*64 {
		// Slot s opens a new word: the oldest recent word joins the tree.
		w := s>>6 - recentWords - 1
		tk.add(w, int32(bits.OnesCount64(tk.words[w])))
	}
	d := distCold
	switch st := tk.state[line]; {
	case st > 0:
		lt := int(st - 1)
		// Lines touched after slot lt each hold one live slot in (lt, t).
		lw, sw := lt>>6, s>>6
		if sw-lw <= recentWords {
			d = bits.OnesCount64(tk.words[lw] &^ (2<<(lt&63) - 1))
			for w := lw + 1; w <= sw; w++ {
				d += bits.OnesCount64(tk.words[w])
			}
		} else {
			d = tk.live - tk.prefix(lt)
			tk.add(lw, -1)
		}
		if d >= tk.cap {
			d = distFar
		}
		tk.words[lw] &^= 1 << (lt & 63)
		tk.live--
	case st < 0:
		d = distFar
	default:
		tk.touched = append(tk.touched, line)
	}
	tk.words[s>>6] |= 1 << (s & 63)
	tk.lineAt[s] = line
	tk.state[line] = int32(s + 1)
	tk.live++
	tk.t++
	return d
}

// prefix returns the number of live slots in [0, s], for an s in an
// old word.
func (tk *tracker) prefix(s int) int {
	w := s >> 6
	n := bits.OnesCount64(tk.words[w] & (2<<(s&63) - 1))
	for i := w; i > 0; i -= i & -i {
		n += int(tk.tree[i])
	}
	return n
}

// add adds delta to word w's count in the tree.
func (tk *tracker) add(w int, delta int32) {
	for i := w + 1; i < len(tk.tree); i += i & -i {
		tk.tree[i] += delta
	}
}

// compact ages out all but the cap most-recently-used lines and
// renumbers the survivors' slots densely from zero, in slot order.
func (tk *tracker) compact() {
	drop := tk.live - tk.cap
	n := 0
	for w, word := range tk.words {
		for ; word != 0; word &= word - 1 {
			line := tk.lineAt[w<<6|bits.TrailingZeros64(word)]
			if drop > 0 {
				tk.state[line] = -1
				drop--
				continue
			}
			tk.lineAt[n] = line
			tk.state[line] = int32(n + 1)
			n++
		}
	}
	clear(tk.words)
	clear(tk.tree)
	full := n >> 6
	for w := 0; w < full; w++ {
		tk.words[w] = ^uint64(0)
	}
	if n&63 != 0 {
		tk.words[full] = 1<<(n&63) - 1
	}
	// Linear-time Fenwick build over the old words, all of them full.
	old := (n-1)>>6 - recentWords
	for i := 1; i < len(tk.tree); i++ {
		if i <= old {
			tk.tree[i] += 64
		}
		if j := i + i&-i; j < len(tk.tree) {
			tk.tree[j] += tk.tree[i]
		}
	}
	tk.t, tk.live = n, n
}

// feed runs processor q's stream st from position i, at virtual clock
// clk, through the tracker into h: each reference first advances the
// clock by its compute gap, then issues its cache accesses (see
// accessesOf) at one cycle each. It stops at the end of the stream or
// before the first reference whose scheduler key, sched.Key(q, clk)
// with clk before the reference's gap, is not below bound; it returns
// the new position and clock and the read-kind accesses issued.
func (tk *tracker) feed(h *Hist, st []mem.Ref, i int, clk uint64, q int, bound uint64) (int, uint64, uint64) {
	var reads uint64
	for ; i < len(st) && sched.Key(q, clk) < bound; i++ {
		r := st[i]
		clk += uint64(r.Gap)
		rd, wr := accessesOf(r.Kind)
		if rd+wr == 0 {
			continue
		}
		line := sysmodel.LineIndex(r.Addr)
		for k := 0; k < rd+wr; k++ {
			h.add(tk.access(line), k >= rd)
		}
		clk += uint64(rd + wr)
		reads += uint64(rd)
	}
	return i, clk, reads
}

// denseStreams returns the streams (phase-major, then per processor)
// and a bound on their line indices for sizing a tracker. When maxLine,
// the largest line any of them accesses, is below maxDirectLines they
// are returned as they are. Otherwise they are copied with every
// accessed line renamed to a dense id in first-touch order, so a sparse
// trace costs tracker memory in proportion to its footprint rather than
// its address range. Renaming is a bijection on lines, so every reuse
// distance is unchanged.
func denseStreams(streams [][][]mem.Ref, maxLine uint32) ([][][]mem.Ref, int) {
	if maxLine < maxDirectLines {
		return streams, int(maxLine) + 1
	}
	ids := make(map[uint32]uint32)
	out := make([][][]mem.Ref, len(streams))
	for ph, procs := range streams {
		out[ph] = make([][]mem.Ref, len(procs))
		for pr, st := range procs {
			dst := make([]mem.Ref, len(st))
			for i, r := range st {
				if rd, wr := accessesOf(r.Kind); rd+wr > 0 {
					line := sysmodel.LineIndex(r.Addr)
					id, ok := ids[line]
					if !ok {
						id = uint32(len(ids))
						ids[line] = id
					}
					r.Addr = id * sysmodel.LineSize
				}
				dst[i] = r
			}
			out[ph][pr] = dst
		}
	}
	return out, len(ids)
}
