// Package scc implements the Shared Cluster Cache: the multi-ported,
// multi-banked, non-blocking data cache that the processors of one cluster
// share (Section 2.1 of the paper).
//
// Banks are interleaved on cache lines — consecutive lines live in
// consecutive banks — and each processor has a dedicated port through the
// processor-cache interconnection network. Contention is modeled per bank:
// an access that finds its bank busy waits until the bank frees
// ("we address the issue of contention at the shared cache by considering
// contention on each individual bank within the SCC").
//
// Because both the bank count and the per-bank set count are powers of two
// in every configuration the paper sweeps, line placement in the banked
// structure is identical to placement in a single cache whose index bits
// are the concatenation of the bank-select and set-select bits. The tag
// store is therefore kept as one cache.Cache, and banking affects timing
// only.
package scc

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// SCC is one cluster's shared cache.
type SCC struct {
	tags     *cache.Cache
	banks    int
	bankMask uint32
	// bank[b] is bank b's timing and access count, fused into one struct
	// so the per-access hot path pays one bounds check and touches one
	// cache line instead of two parallel slices. Stats() materializes the
	// counts into Stats.BankAccesses for external consumers.
	bank      []bankState
	lineShift uint32 // log2 of the line size; line index = addr >> lineShift
	stats     Stats

	// victim is an optional small fully-associative victim buffer that
	// catches recently conflict-evicted lines (Jouppi-style) — an
	// extension the paper's direct-mapped SCC would benefit from. Nil
	// when disabled.
	victim *victimBuffer
}

// victimBuffer is a tiny FIFO of recently evicted lines.
type victimBuffer struct {
	tags  []uint32 // line indices; victimInvalid when empty
	dirty []bool
	next  int
}

const victimInvalid = ^uint32(0)

// bankState is one bank's arbitration state.
type bankState struct {
	free  uint64 // cycle at which the bank next becomes available
	count uint64 // accesses routed to this bank
}

func newVictimBuffer(entries int) *victimBuffer {
	v := &victimBuffer{tags: make([]uint32, entries), dirty: make([]bool, entries)}
	for i := range v.tags {
		v.tags[i] = victimInvalid
	}
	return v
}

// take removes and returns whether the line was buffered.
func (v *victimBuffer) take(line uint32) (bool, bool) {
	for i, t := range v.tags {
		if t == line {
			d := v.dirty[i]
			v.tags[i] = victimInvalid
			return true, d
		}
	}
	return false, false
}

// put inserts an evicted line, displacing the oldest entry, and returns
// the displaced line (victimInvalid for an empty entry). The cursor
// wraps with a compare-and-reset rather than a modulo: the buffer sits on
// the miss path and an integer divide per eviction is measurable at the
// typical 4-8 entry sizes.
func (v *victimBuffer) put(line uint32, dirty bool) uint32 {
	old := v.tags[v.next]
	v.tags[v.next] = line
	v.dirty[v.next] = dirty
	if v.next++; v.next == len(v.tags) {
		v.next = 0
	}
	return old
}

// Stats accumulates SCC-specific contention statistics on top of the tag
// store's hit/miss statistics.
type Stats struct {
	// BankConflicts counts accesses that found their bank busy.
	BankConflicts uint64
	// BankWaitCycles is the total cycles accesses spent waiting for a
	// busy bank.
	BankWaitCycles uint64
	// BankAccesses[b] counts accesses routed to bank b.
	BankAccesses []uint64
	// VictimHits counts misses satisfied by the victim buffer.
	VictimHits uint64
}

// New builds an SCC of size bytes with the given associativity and bank
// count, 16-byte lines and LRU replacement. banks must be a power of
// two (the paper uses 4 banks per processor: 4, 8, 16 or 32).
func New(size, assoc, banks int) (*SCC, error) {
	return NewWith(size, assoc, banks, sysmodel.LineSize, sysmodel.ReplLRU)
}

// NewWith is New with the line size and replacement policy as explicit
// axes (see cache.NewWith for their domains).
func NewWith(size, assoc, banks, lineBytes int, repl string) (*SCC, error) {
	if banks < 1 || banks&(banks-1) != 0 {
		return nil, fmt.Errorf("scc: bank count %d is not a positive power of two", banks)
	}
	tags, err := cache.NewWith(size, assoc, lineBytes, repl)
	if err != nil {
		return nil, fmt.Errorf("scc: %w", err)
	}
	if size/tags.LineBytes() < banks {
		return nil, fmt.Errorf("scc: size %d has fewer lines than banks %d", size, banks)
	}
	shift := uint32(0)
	for lb := tags.LineBytes(); lb > 1; lb >>= 1 {
		shift++
	}
	return &SCC{
		tags:      tags,
		banks:     banks,
		bankMask:  uint32(banks - 1),
		bank:      make([]bankState, banks),
		lineShift: shift,
		stats:     Stats{BankAccesses: make([]uint64, banks)},
	}, nil
}

// EnableVictimBuffer attaches a fully-associative victim buffer of the
// given entry count (Jouppi-style). Call before simulation starts.
func (s *SCC) EnableVictimBuffer(entries int) {
	if entries > 0 {
		s.victim = newVictimBuffer(entries)
	}
}

// MustNew is New but panics on error.
func MustNew(size, assoc, banks int) *SCC {
	s, err := New(size, assoc, banks)
	if err != nil {
		panic(err)
	}
	return s
}

// Banks returns the number of banks.
func (s *SCC) Banks() int { return s.banks }

// SizeBytes returns the capacity in bytes.
func (s *SCC) SizeBytes() int { return s.tags.SizeBytes() }

// CacheStats returns the tag-store hit/miss statistics.
func (s *SCC) CacheStats() *cache.Stats { return s.tags.Stats() }

// Stats returns the contention statistics, materializing the per-bank
// access counts from the fused bank state. The returned pointer stays
// valid, but BankAccesses reflects the counts as of this call.
func (s *SCC) Stats() *Stats {
	for i := range s.bank {
		s.stats.BankAccesses[i] = s.bank[i].count
	}
	return &s.stats
}

// ResetStats zeroes the contention statistics (bank access counts,
// conflicts, wait cycles, victim hits) — the simulator's statistics
// warmup uses it. Bank timing state is untouched.
func (s *SCC) ResetStats() {
	for i := range s.bank {
		s.bank[i].count = 0
	}
	for i := range s.stats.BankAccesses {
		s.stats.BankAccesses[i] = 0
	}
	s.stats.BankConflicts, s.stats.BankWaitCycles, s.stats.VictimHits = 0, 0, 0
}

// BankStart arbitrates addr's bank for an access issued at cycle now:
// if the bank is busy the access waits (accounted as a conflict), then
// the bank is occupied for sysmodel.BankAccessCycles. Returns the cycle
// at which the bank begins servicing the access. It is the first step
// of every SCC access (see Tags), kept inline-small so the simulator's
// access paths run it without a call.
func (s *SCC) BankStart(now uint64, addr uint32) uint64 {
	b := &s.bank[(addr>>s.lineShift)&s.bankMask]
	b.count++
	start := b.free
	if start <= now {
		start = now
	} else {
		s.stats.BankConflicts++
		s.stats.BankWaitCycles += start - now
	}
	b.free = start + sysmodel.BankAccessCycles
	return start
}

// Tags returns the tag store. An SCC access is BankStart for timing,
// then the tag store's probe/miss pair — cache.HitDM/MissDM or
// HitAssoc/MissAssoc by associativity — and, on a miss with a victim
// buffer attached, MissVictim. On a miss the caller is responsible for
// bus/memory timing; the refill does not occupy the bank again (the SCC
// is non-blocking, and its one refill cycle is negligible against the
// 100-cycle fetch — see the simulator's miss path). Accessing the tag
// store outside that sequence bypasses bank accounting.
func (s *SCC) Tags() *cache.Cache { return s.tags }

// MissVictim completes, with the victim buffer, a miss on addr that the
// tag store's miss half (cache.MissDM or MissAssoc) has just filled,
// displacing evicted (cache.EvictedNone for no line). Call it only when
// EnableVictimBuffer attached a buffer. It reports whether the buffer
// held the missing line: the line then swaps back without a bus
// transaction and the access completes as a hit. (The tag store still
// counted a miss; VictimHits lets callers reconcile the two views.)
//
// The displaced line moves to the buffer instead of leaving the SCC, so
// the caller must not send the bus an eviction notice for it: its
// coherence presence bit stays set (the line is still here and must
// still receive invalidations — Invalidate checks the buffer). An entry
// silently displaced *out* of the buffer leaves a stale presence bit
// behind, which is safe: a later invalidation attempt simply finds
// nothing. MissVictim returns that entry's line index as gone
// (cache.EvictedNone when the buffer displaced nothing): it has left
// the SCC, so a caller keeping copies of the SCC's lines, such as the
// hybrid hierarchy's L1s, must drop them.
func (s *SCC) MissVictim(addr uint32, kind mem.Kind, evicted uint32, evictedDirty bool) (hit bool, gone uint32) {
	found, dirty := s.victim.take(addr >> s.lineShift)
	if found {
		s.stats.VictimHits++
		if dirty && kind == mem.Read {
			// Preserve dirtiness without perturbing any statistics: the
			// swap-back is not a program reference, so it must not show
			// up in Accesses[Write] or the hit/miss counts.
			s.tags.MarkDirty(addr)
		}
	}
	gone = cache.EvictedNone
	if evicted != cache.EvictedNone {
		if old := s.victim.put(evicted, evictedDirty); old != victimInvalid {
			gone = old
		}
	}
	return found, gone
}

// Probe reports whether addr is resident without side effects.
func (s *SCC) Probe(addr uint32) bool { return s.tags.Probe(addr) }

// VisitLines calls fn for every line the SCC currently holds — tag-store
// lines first, then lines parked in the victim buffer (which are still
// resident for coherence purposes: Invalidate reaches them and their
// presence bits stay set). No statistics are touched.
func (s *SCC) VisitLines(fn func(lineIndex uint32, dirty bool)) {
	s.tags.VisitLines(fn)
	if s.victim != nil {
		for i, t := range s.victim.tags {
			if t != victimInvalid {
				fn(t, s.victim.dirty[i])
			}
		}
	}
}

// Invalidate removes addr's line if present (inter-cluster coherence),
// including a copy parked in the victim buffer.
func (s *SCC) Invalidate(addr uint32) (present, dirty bool) {
	present, dirty = s.tags.Invalidate(addr)
	if s.victim != nil {
		if found, d := s.victim.take(addr >> s.lineShift); found {
			present = true
			dirty = dirty || d
		}
	}
	return present, dirty
}

// BankImbalance returns max/mean of per-bank access counts, a measure of
// how evenly line interleaving spread the traffic (1.0 = perfectly even).
func (s *Stats) BankImbalance() float64 {
	var sum, max uint64
	for _, n := range s.BankAccesses {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.BankAccesses))
	return float64(max) / mean
}
