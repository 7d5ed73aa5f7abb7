// Package cache implements the tag-store cache model used for both the
// per-processor instruction caches and the banked Shared Cluster Cache.
//
// The model is a set-associative (including direct-mapped) cache of
// power-of-two-sized lines (16 B, the paper's choice, by default) with
// true-LRU or deterministic-random replacement, write-allocate and
// write-back semantics. It tracks per-access-kind hit/miss statistics,
// supports external invalidation (for the inter-cluster coherence
// protocol), and reports evicted lines so callers can maintain presence
// information.
package cache

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// Each way's tag state is one word: the line index (addr >> lineShift)
// with the dirty bit in bit 31, or tagInvalid when the way is empty.
// Line indices of 32-bit addresses at the smallest 4-byte line are below
// 2^30, so neither the dirty bit nor tagInvalid can alias a tag, and
// w&^dirtyBit == tag is the whole hit test (an empty way's 0x7fffffff
// matches no tag).
const (
	dirtyBit   = uint32(1) << 31
	tagInvalid = ^uint32(0)
)

// Stats accumulates access counts per reference kind.
type Stats struct {
	// Accesses[k] and Misses[k] count accesses and misses of kind k.
	Accesses [mem.NumKinds]uint64
	Misses   [mem.NumKinds]uint64
	// Evictions counts lines displaced by fills.
	Evictions uint64
	// Invalidations counts lines removed by external invalidation.
	Invalidations uint64
	// WriteBacks counts dirty lines written back on eviction or
	// invalidation.
	WriteBacks uint64
}

// TotalAccesses returns the access count summed over kinds.
func (s *Stats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses returns the miss count summed over kinds.
func (s *Stats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}

// MissRate returns misses/accesses over all kinds, or 0 if no accesses.
func (s *Stats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

// ReadMissRate returns the read miss rate, the statistic Table 4 of the
// paper reports, or 0 if there were no reads.
func (s *Stats) ReadMissRate() float64 {
	if s.Accesses[mem.Read] == 0 {
		return 0
	}
	return float64(s.Misses[mem.Read]) / float64(s.Accesses[mem.Read])
}

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	for k := 0; k < mem.NumKinds; k++ {
		s.Accesses[k] += o.Accesses[k]
		s.Misses[k] += o.Misses[k]
	}
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.WriteBacks += o.WriteBacks
}

// Cache is a set-associative cache tag store.
type Cache struct {
	tags []uint32 // one word per way (see dirtyBit), set-major: len = nsets*assoc
	// lru[i] is way i's last-use stamp (higher = more recent), parallel
	// to tags; nil when direct-mapped, where replacement is forced.
	lru       []uint32
	nsets     uint32
	assoc     uint32
	setMask   uint32 // nsets-1 when nsets is a power of two
	pow2      bool   // whether setMask indexing applies
	lineShift uint32 // log2 of the line size; tag = addr >> lineShift
	random    bool   // random (vs true-LRU) replacement
	rng       uint32 // xorshift32 state, used only by random replacement
	clock     uint32 // LRU timestamp source
	stats     Stats
}

// rngSeed is the fixed xorshift32 seed for random replacement. A
// constant seed (any non-zero value works; this is the golden-ratio
// word) keeps "random" runs bit-reproducible and lets the independent
// oracle in internal/verify replay the identical victim sequence.
const rngSeed = 0x9E3779B9

// New builds a cache of size bytes with the given associativity,
// 16-byte lines and LRU replacement. Size must be a multiple of
// assoc*LineSize; any resulting set count is accepted. Power-of-two set
// counts (every configuration in the paper's sweep) index by mask;
// other counts — reachable through the search API's generalized size
// axis — index by modulo, which agrees with the mask wherever both
// apply.
func New(size, assoc int) (*Cache, error) {
	return NewWith(size, assoc, sysmodel.LineSize, sysmodel.ReplLRU)
}

// NewWith is New with the line size (a power of two, 4..1024 bytes) and
// replacement policy (sysmodel.ReplLRU or sysmodel.ReplRandom; "" means
// LRU) as explicit axes. Random replacement draws victims from a
// deterministically seeded xorshift32 stream, advanced only when a miss
// finds no empty way, so runs remain reproducible.
func NewWith(size, assoc, lineBytes int, repl string) (*Cache, error) {
	if assoc < 1 {
		return nil, fmt.Errorf("cache: associativity %d, want >= 1", assoc)
	}
	if lineBytes < 4 || lineBytes > 1024 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d, want a power of two in 4..1024", lineBytes)
	}
	var random bool
	switch repl {
	case "", sysmodel.ReplLRU:
	case sysmodel.ReplRandom:
		random = true
	default:
		return nil, fmt.Errorf("cache: replacement %q, want %q or %q", repl, sysmodel.ReplLRU, sysmodel.ReplRandom)
	}
	lines := size / lineBytes
	if lines*lineBytes != size || lines < assoc {
		return nil, fmt.Errorf("cache: size %d not a multiple of %d lines of %d bytes",
			size, assoc, lineBytes)
	}
	nsets := lines / assoc
	if lines%assoc != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d-way sets", lines, assoc)
	}
	shift := uint32(0)
	for lb := lineBytes; lb > 1; lb >>= 1 {
		shift++
	}
	c := &Cache{
		tags:      make([]uint32, lines),
		nsets:     uint32(nsets),
		assoc:     uint32(assoc),
		setMask:   uint32(nsets - 1),
		pow2:      nsets&(nsets-1) == 0,
		lineShift: shift,
		random:    random,
		rng:       rngSeed,
	}
	if assoc > 1 {
		c.lru = make([]uint32, lines)
	}
	c.Flush()
	return c, nil
}

// xorshift32 is Marsaglia's 13/17/5 xorshift step — the documented
// victim-draw generator for random replacement. The oracle in
// internal/verify reimplements this exact recurrence (sharing no code)
// so random-replacement runs still diff bit-for-bit.
func xorshift32(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// set maps a line address to its set index: mask for power-of-two set
// counts, modulo otherwise. For power-of-two n the two agree
// (tag & (n-1) == tag % n), so every paper-sweep configuration behaves
// bit-identically to the mask-only implementation.
func (c *Cache) set(tag uint32) uint32 {
	if c.pow2 {
		return tag & c.setMask
	}
	return tag % c.nsets
}

// MustNew is New but panics on error; for configurations known valid.
func MustNew(size, assoc int) *Cache {
	c, err := New(size, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.nsets) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return int(c.assoc) }

// SizeBytes returns the cache capacity in bytes.
func (c *Cache) SizeBytes() int { return len(c.tags) << c.lineShift }

// LineBytes returns the cache's line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

// Result describes the outcome of one access.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// Evicted is the line address (not byte address) of a valid line
	// displaced by the fill, or EvictedNone.
	Evicted uint32
	// EvictedDirty reports whether the displaced line was dirty.
	EvictedDirty bool
}

// EvictedNone is the Evicted value when no line was displaced.
const EvictedNone = ^uint32(0)

// Access performs a read or write of addr, filling on miss
// (write-allocate) and returning the outcome. Writes mark the line dirty.
// It is the probe/miss pair of the cache's associativity (HitDM/MissDM
// or HitAssoc/MissAssoc) as one call.
func (c *Cache) Access(addr uint32, kind mem.Kind) Result {
	if c.assoc == 1 {
		if c.HitDM(addr, kind) {
			return Result{Hit: true, Evicted: EvictedNone}
		}
		return c.MissDM(addr, kind)
	}
	if c.HitAssoc(addr, kind) {
		return Result{Hit: true, Evicted: EvictedNone}
	}
	return c.MissAssoc(addr, kind)
}

// HitAssoc and MissAssoc are Access split in two for set-associative
// caches (Assoc() > 1), with the same contract as HitDM/MissDM: HitAssoc
// counts the access, advances the LRU clock and, on a hit, stamps the way
// and marks a write dirty; when it returns false the caller MUST complete
// the access with MissAssoc, which picks the victim — an empty way first,
// else the least recently used or, under random replacement, a drawn way
// — and fills it with the clock HitAssoc advanced.
func (c *Cache) HitAssoc(addr uint32, kind mem.Kind) bool {
	tag := addr >> c.lineShift
	base := c.set(tag) * c.assoc
	c.stats.Accesses[kind]++
	c.clock++
	ways := c.tags[base : base+c.assoc]
	for i, w := range ways {
		if w&^dirtyBit == tag {
			c.lru[base+uint32(i)] = c.clock
			if kind == mem.Write {
				ways[i] = w | dirtyBit
			}
			return true
		}
	}
	return false
}

// MissAssoc completes a set-associative access HitAssoc reported as a
// miss. See HitAssoc for the contract.
func (c *Cache) MissAssoc(addr uint32, kind mem.Kind) Result {
	tag := addr >> c.lineShift
	base := c.set(tag) * c.assoc
	ways := c.tags[base : base+c.assoc]
	lru := c.lru[base : base+c.assoc]
	victim := 0
	victimLRU := ^uint32(0)
	for i, w := range ways {
		if w == tagInvalid {
			// Prefer an empty way; LRU 0 guarantees selection unless an
			// earlier empty way was already chosen.
			if victimLRU != 0 {
				victim, victimLRU = i, 0
			}
			continue
		}
		if lru[i] < victimLRU {
			victim, victimLRU = i, lru[i]
		}
	}

	// Valid ways always carry lru >= 1, so victimLRU == 0 means an empty
	// way was found; random replacement draws only on a genuinely full
	// set, keeping the stream position a pure function of the miss
	// sequence (what the oracle replays).
	if c.random && victimLRU != 0 {
		c.rng = xorshift32(c.rng)
		victim = int(c.rng % c.assoc)
	}

	c.stats.Misses[kind]++
	res := c.fill(&ways[victim], tag, kind)
	lru[victim] = c.clock
	return res
}

// HitDM and MissDM are Access split in two for direct-mapped caches: one
// candidate way, no victim search, and no LRU bookkeeping (replacement
// is forced, so a direct-mapped cache keeps no stamps at all). HitDM
// performs the access when it hits and is small enough for the compiler
// to inline into the simulator's replay loop — the overwhelmingly
// common hit then costs no call through the cache layer. When HitDM
// returns false the caller MUST complete the access with MissDM (the
// pair is one access: HitDM counts it, MissDM adds only the miss-side
// statistics). Callers must ensure Assoc() == 1; Access delegates
// automatically.
func (c *Cache) HitDM(addr uint32, kind mem.Kind) bool {
	tag := addr >> c.lineShift
	w := &c.tags[c.set(tag)]
	c.stats.Accesses[kind]++
	if *w&^dirtyBit != tag {
		return false
	}
	if kind == mem.Write {
		*w |= dirtyBit
	}
	return true
}

// MissDM completes a direct-mapped access HitDM reported as a miss:
// eviction accounting and line install. See HitDM for the contract.
func (c *Cache) MissDM(addr uint32, kind mem.Kind) Result {
	tag := addr >> c.lineShift
	c.stats.Misses[kind]++
	return c.fill(&c.tags[c.set(tag)], tag, kind)
}

// fill installs tag in way w for a missing access of kind, accounting
// the displaced line, if any, as an eviction.
func (c *Cache) fill(w *uint32, tag uint32, kind mem.Kind) Result {
	res := Result{Evicted: EvictedNone}
	if old := *w; old != tagInvalid {
		c.stats.Evictions++
		res.Evicted = old &^ dirtyBit
		res.EvictedDirty = old&dirtyBit != 0
		if res.EvictedDirty {
			c.stats.WriteBacks++
		}
	}
	*w = tag
	if kind == mem.Write {
		*w = tag | dirtyBit
	}
	return res
}

// FillDM installs addr's line clean in a direct-mapped cache without
// touching statistics, reporting whether a valid line was displaced.
// It is the write-through L1 fill primitive: the hybrid hierarchy
// counts L1 traffic in its own external Stats (the internal counters
// would double-book), and a write-through cache's evictions are clean
// by construction, so no eviction notice is needed. Callers must
// ensure Assoc() == 1.
func (c *Cache) FillDM(addr uint32) (displaced bool) {
	tag := addr >> c.lineShift
	w := &c.tags[c.set(tag)]
	displaced = *w != tagInvalid && *w&^dirtyBit != tag
	*w = tag
	return displaced
}

// ProbeDM is Probe for a direct-mapped cache: one tag-word compare,
// small enough to inline where Probe's set scan is a call. Callers must
// ensure Assoc() == 1.
func (c *Cache) ProbeDM(addr uint32) bool {
	tag := addr >> c.lineShift
	return c.tags[c.set(tag)]&^dirtyBit == tag
}

// MarkDirty sets the dirty bit of the line containing addr if it is
// present, reporting whether it was. Unlike a write Access it touches no
// statistics, LRU state, or replacement clock — it exists for state
// restoration paths (the victim buffer swapping a dirty line back in)
// that must not masquerade as program references.
func (c *Cache) MarkDirty(addr uint32) bool {
	if i, ok := c.find(addr); ok {
		c.tags[i] |= dirtyBit
		return true
	}
	return false
}

// find returns the index in tags of the way holding addr's line.
func (c *Cache) find(addr uint32) (int, bool) {
	tag := addr >> c.lineShift
	base := c.set(tag) * c.assoc
	for i, w := range c.tags[base : base+c.assoc] {
		if w&^dirtyBit == tag {
			return int(base) + i, true
		}
	}
	return 0, false
}

// Probe reports whether addr is present without updating LRU or stats.
func (c *Cache) Probe(addr uint32) bool {
	_, ok := c.find(addr)
	return ok
}

// Invalidate removes the line containing addr if present, returning
// whether it was present and whether it was dirty. Used by the
// inter-cluster invalidation protocol.
func (c *Cache) Invalidate(addr uint32) (present, dirty bool) {
	i, ok := c.find(addr)
	if !ok {
		return false, false
	}
	dirty = c.tags[i]&dirtyBit != 0
	c.stats.Invalidations++
	if dirty {
		c.stats.WriteBacks++
	}
	c.tags[i] = tagInvalid
	if c.lru != nil {
		c.lru[i] = 0
	}
	return true, dirty
}

// VisitLines calls fn for every valid line currently resident, passing
// the line index (addr / LineSize) and its dirty bit. Iteration order is
// set-major and unspecified beyond that. No statistics or LRU state are
// touched; the invariant checker uses this to audit residency against
// the coherence presence table.
func (c *Cache) VisitLines(fn func(lineIndex uint32, dirty bool)) {
	for _, w := range c.tags {
		if w != tagInvalid {
			fn(w&^dirtyBit, w&dirtyBit != 0)
		}
	}
}

// Flush empties the cache without touching statistics. It is used between
// multiprogramming scheduler epochs in ablation experiments.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
	clear(c.lru)
}

// ValidLines returns the number of valid lines currently resident.
func (c *Cache) ValidLines() int {
	n := 0
	for _, w := range c.tags {
		if w != tagInvalid {
			n++
		}
	}
	return n
}
