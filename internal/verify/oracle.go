// The oracle simulator: a deliberately naive reimplementation of the
// documented simulation model, used to cross-check the optimized
// simulator's results. Where internal/sim replays compiled traces,
// keeps presence in one slice indexed by line, runs the
// direct-mapped bank/tag path inside its replay loop and schedules
// processors through a tournament tree, the oracle uses maps for
// everything (sets, presence, bank timing, locks), walks the Program's
// phases without compiling it, and picks the next processor with a
// linear scan. The two implementations share no simulation code — only
// the small statistics structs they both report — so a bug in one is
// overwhelmingly unlikely to be reproduced by the other.
//
// Model scope (the paper's baseline model, which the whole design-space
// grid runs under): fixed 100-cycle memory, zero bus occupancy, flat
// main memory, no victim buffer, no statistics warmup. Ablations of
// those assumptions (BusOccupancy, MemBanks, VictimEntries, WarmupRefs)
// are outside the oracle's scope and are guarded by the invariant
// checker instead.
package verify

import (
	"fmt"
	"reflect"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/scc"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// OracleOptions mirrors the subset of sim.Options the oracle models.
type OracleOptions struct {
	// WriteBufferDepth follows the documented sim.Options semantics:
	// 0 means the default of 8, negative means infinite.
	WriteBufferDepth int
	// SwitchPenalty is the multiprogramming context-switch cost in
	// cycles. Ignored by RunOracle.
	SwitchPenalty uint64
}

func (o OracleOptions) wbDepth() int {
	switch {
	case o.WriteBufferDepth == 0:
		return 8
	case o.WriteBufferDepth < 0:
		return 1 << 30
	default:
		return o.WriteBufferDepth
	}
}

// oracleSpinInterval is the documented re-test period of the
// test-and-test-and-set spin loop (sim.SpinInterval).
const oracleSpinInterval = 12

// Process is one sequential program of a multiprogramming workload, the
// oracle-side mirror of sim.Process (verify cannot import sim).
type Process struct {
	Name string
	Refs []mem.Ref
}

// RunStats is the result surface the oracle and the real simulator are
// compared on: every headline counter, per-processor stall account, and
// per-cluster statistic both implementations compute.
type RunStats struct {
	Cycles      uint64
	Refs        uint64
	LockSpins   uint64
	Switches    uint64
	ProcFinish  []uint64
	ReadStall   []uint64
	WriteStall  []uint64
	BankStall   []uint64
	BarrierWait []uint64
	LockStall   []uint64
	PhaseCycles []uint64
	// Cache[i] / Bank[i] are cluster i's tag-store and contention stats
	// (per-processor, not per-cluster, in the private hierarchy).
	Cache []cache.Stats
	Bank  []scc.Stats
	Bus   snoop.Stats
	// L1[p] is processor p's private L1 statistics (hybrid hierarchy
	// only; nil otherwise).
	L1 []cache.Stats
}

// DiffRunStats compares an oracle run against a real run field by field
// and returns a human-readable description of every divergence (empty
// when the runs agree exactly).
func DiffRunStats(oracle, real *RunStats) []string {
	var d []string
	add := func(format string, args ...any) { d = append(d, fmt.Sprintf(format, args...)) }
	cmp := func(name string, a, b uint64) {
		if a != b {
			add("%s: oracle %d, real %d", name, a, b)
		}
	}
	cmp("cycles", oracle.Cycles, real.Cycles)
	cmp("refs", oracle.Refs, real.Refs)
	cmp("lock spins", oracle.LockSpins, real.LockSpins)
	cmp("switches", oracle.Switches, real.Switches)
	cmpSlice := func(name string, a, b []uint64) {
		if len(a) != len(b) {
			add("%s: oracle has %d entries, real %d", name, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				add("%s[%d]: oracle %d, real %d", name, i, a[i], b[i])
				return
			}
		}
	}
	cmpSlice("proc finish", oracle.ProcFinish, real.ProcFinish)
	cmpSlice("read stall", oracle.ReadStall, real.ReadStall)
	cmpSlice("write stall", oracle.WriteStall, real.WriteStall)
	cmpSlice("bank stall", oracle.BankStall, real.BankStall)
	cmpSlice("barrier wait", oracle.BarrierWait, real.BarrierWait)
	cmpSlice("lock stall", oracle.LockStall, real.LockStall)
	cmpSlice("phase cycles", oracle.PhaseCycles, real.PhaseCycles)
	if len(oracle.Cache) != len(real.Cache) {
		add("cache stats: oracle has %d clusters, real %d", len(oracle.Cache), len(real.Cache))
	} else {
		for i := range oracle.Cache {
			if !reflect.DeepEqual(oracle.Cache[i], real.Cache[i]) {
				add("cluster %d cache stats: oracle %+v, real %+v", i, oracle.Cache[i], real.Cache[i])
			}
		}
	}
	if len(oracle.Bank) != len(real.Bank) {
		add("bank stats: oracle has %d clusters, real %d", len(oracle.Bank), len(real.Bank))
	} else {
		for i := range oracle.Bank {
			if !reflect.DeepEqual(oracle.Bank[i], real.Bank[i]) {
				add("cluster %d bank stats: oracle %+v, real %+v", i, oracle.Bank[i], real.Bank[i])
			}
		}
	}
	if oracle.Bus != real.Bus {
		add("bus stats: oracle %+v, real %+v", oracle.Bus, real.Bus)
	}
	if len(oracle.L1) != len(real.L1) {
		add("L1 stats: oracle has %d processors, real %d", len(oracle.L1), len(real.L1))
	} else {
		for i := range oracle.L1 {
			if !reflect.DeepEqual(oracle.L1[i], real.L1[i]) {
				add("processor %d L1 stats: oracle %+v, real %+v", i, oracle.L1[i], real.L1[i])
			}
		}
	}
	return d
}

// oway is one way of one oracle cache set.
type oway struct {
	tag   uint32
	lru   uint64
	valid bool
	dirty bool
}

// oracleRngSeed and oracleXorshift reimplement (sharing no code) the
// documented deterministic victim-draw stream for random replacement:
// Marsaglia's 13/17/5 xorshift32 seeded with the golden-ratio word,
// advanced only when a miss finds no empty way.
const oracleRngSeed = 0x9E3779B9

func oracleXorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// oracleCache is the naive cache model: a map of lazily-created sets,
// true-LRU via a per-cache access clock, write-allocate, write-back.
// Victim choice matches the documented policy: first empty way, else
// the least recently used way (or, under random replacement, a
// deterministic xorshift32 draw over the way positions).
type oracleCache struct {
	nsets  uint32
	assoc  int
	line   uint32
	random bool
	rng    uint32
	sets   map[uint32][]oway
	clock  uint64
	stats  cache.Stats
}

func newOracleCache(size, assoc, lineBytes int, repl string) (*oracleCache, error) {
	if assoc < 1 {
		return nil, fmt.Errorf("verify: oracle cache: associativity %d, want >= 1", assoc)
	}
	if lineBytes < 4 || lineBytes > 1024 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("verify: oracle cache: line size %d, want a power of two in 4..1024", lineBytes)
	}
	var random bool
	switch repl {
	case "", sysmodel.ReplLRU:
	case sysmodel.ReplRandom:
		random = true
	default:
		return nil, fmt.Errorf("verify: oracle cache: replacement %q", repl)
	}
	lines := size / lineBytes
	if lines*lineBytes != size || lines < assoc {
		return nil, fmt.Errorf("verify: oracle cache: size %d not a whole number of %d-way line sets", size, assoc)
	}
	nsets := lines / assoc
	return &oracleCache{
		nsets: uint32(nsets), assoc: assoc, line: uint32(lineBytes),
		random: random, rng: oracleRngSeed, sets: make(map[uint32][]oway),
	}, nil
}

func (c *oracleCache) set(tag uint32) []oway {
	s := tag % c.nsets
	w, ok := c.sets[s]
	if !ok {
		w = make([]oway, c.assoc)
		c.sets[s] = w
	}
	return w
}

// access performs one reference, returning hit or the displaced line.
func (c *oracleCache) access(addr uint32, kind mem.Kind) (hit bool, evicted uint32, evictedDirty, evictedValid bool) {
	tag := addr / c.line
	ways := c.set(tag)
	c.stats.Accesses[kind]++
	c.clock++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			if kind == mem.Write {
				ways[i].dirty = true
			}
			return true, 0, false, false
		}
	}
	c.stats.Misses[kind]++
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
		// Random replacement draws only on a genuinely full set, and
		// only when replacement is a choice (direct-mapped caches have a
		// forced victim and never touch the stream).
		if c.random && c.assoc > 1 {
			c.rng = oracleXorshift(c.rng)
			victim = int(c.rng % uint32(c.assoc))
		}
		c.stats.Evictions++
		evicted, evictedDirty, evictedValid = ways[victim].tag, ways[victim].dirty, true
		if evictedDirty {
			c.stats.WriteBacks++
		}
	}
	ways[victim] = oway{tag: tag, lru: c.clock, valid: true, dirty: kind == mem.Write}
	return false, evicted, evictedDirty, evictedValid
}

// invalidate removes addr's line if present (inter-cluster coherence).
func (c *oracleCache) invalidate(addr uint32) (present, dirty bool) {
	tag := addr / c.line
	ways, ok := c.sets[tag%c.nsets]
	if !ok {
		return false, false
	}
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Invalidations++
			if ways[i].dirty {
				c.stats.WriteBacks++
			}
			present, dirty = true, ways[i].dirty
			ways[i] = oway{}
			return present, dirty
		}
	}
	return false, false
}

// oracleIntraClusterLatency is the documented cache-to-cache transfer
// latency of the private organization's intra-cluster bus
// (sim.IntraClusterLatency), restated rather than imported.
const oracleIntraClusterLatency = 20

// ol1 is the naive model of one hybrid-hierarchy private L1: a
// direct-mapped, write-through, no-write-allocate tag store whose lines
// are clean by construction, held as a map from set index to resident
// line address. Statistics live outside (RunStats.L1), mirroring the
// documented external accounting.
type ol1 struct {
	tags  map[uint32]uint32
	nsets uint32
	line  uint32
}

func newOl1(size, lineBytes int) *ol1 {
	return &ol1{
		tags:  make(map[uint32]uint32),
		nsets: uint32(size / lineBytes),
		line:  uint32(lineBytes),
	}
}

func (c *ol1) probe(addr uint32) bool {
	tag := addr / c.line
	t, ok := c.tags[tag%c.nsets]
	return ok && t == tag
}

// fill installs addr's line, reporting whether a different line was
// displaced (silently — write-through lines are clean).
func (c *ol1) fill(addr uint32) (displaced bool) {
	tag := addr / c.line
	set := tag % c.nsets
	t, ok := c.tags[set]
	c.tags[set] = tag
	return ok && t != tag
}

func (c *ol1) invalidate(addr uint32) (present bool) {
	tag := addr / c.line
	set := tag % c.nsets
	if t, ok := c.tags[set]; ok && t == tag {
		delete(c.tags, set)
		return true
	}
	return false
}

// osys is the assembled oracle machine for one run. The hierarchy
// decides the shape: shared keeps one cache per cluster, private one
// per processor (mem = memAccessPrivate), hybrid adds per-processor L1s
// in front of the per-cluster caches (mem = memAccessHybrid).
type osys struct {
	banks    int
	wbDepth  int
	line     uint32
	caches   []*oracleCache
	presence map[uint32]uint32
	bus      snoop.Stats
	// mem is the hierarchy's reference path; access goes through it.
	mem func(p int, now uint64, addr uint32, kind mem.Kind) uint64
	// Per-cluster bank state, map-keyed by bank number.
	bankFree  []map[uint32]uint64
	bankCount []map[uint32]uint64
	bankConf  []uint64
	bankWait  []uint64
	// wb[i] holds in-flight buffered-write completion times: one buffer
	// per cluster (shared/hybrid) or per processor (private).
	wb [][]uint64
	// locks[addr] is the owner holding the lock word at addr: a
	// processor, or under multiprogramming the process it runs.
	locks   map[uint32]int
	cluster []int
	// private: group[i] is cache i's cluster (intra-cluster fetch test).
	private bool
	group   []int
	// hybrid: per-processor L1s, external stats, and the inclusion
	// hooks the shared-path code invokes.
	l1           []*ol1
	l1St         []cache.Stats
	onEvict      func(c int, evictedLine uint32)
	onInvalidate func(c int, addr uint32)
	ppc          int
	st           *RunStats
}

// li maps a byte address to its line index at the configured line size.
func (s *osys) li(addr uint32) uint32 { return addr / s.line }

func newOsys(cfg sysmodel.Config, procs int, o OracleOptions) (*osys, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &osys{
		wbDepth:  o.wbDepth(),
		line:     uint32(cfg.Line()),
		presence: make(map[uint32]uint32),
		locks:    make(map[uint32]int),
		cluster:  make([]int, procs),
		ppc:      cfg.ProcsPerCluster,
		st: &RunStats{
			ProcFinish:  make([]uint64, procs),
			ReadStall:   make([]uint64, procs),
			WriteStall:  make([]uint64, procs),
			BankStall:   make([]uint64, procs),
			BarrierWait: make([]uint64, procs),
			LockStall:   make([]uint64, procs),
		},
	}

	if cfg.HierarchyKind() == sysmodel.HierarchyPrivate {
		// Private organization: one cache per processor, no banks, a
		// per-processor write buffer, and intra-cluster fetches.
		if procs > 32 {
			return nil, fmt.Errorf("verify: oracle: private hierarchy supports at most 32 caches, config has %d", procs)
		}
		s.private = true
		s.group = make([]int, procs)
		perProc := cfg.SCCBytes / cfg.ProcsPerCluster
		for p := 0; p < procs; p++ {
			c, err := newOracleCache(perProc, cfg.Assoc, cfg.Line(), cfg.ReplPolicy())
			if err != nil {
				return nil, err
			}
			s.caches = append(s.caches, c)
			s.cluster[p] = p
			s.group[p] = p / cfg.ProcsPerCluster
		}
		s.wb = make([][]uint64, procs)
		s.mem = s.memAccessPrivate
		return s, nil
	}

	banks := cfg.Banks()
	if banks < 1 || banks&(banks-1) != 0 {
		return nil, fmt.Errorf("verify: oracle: bank count %d is not a positive power of two", banks)
	}
	if cfg.SCCBytes/cfg.Line() < banks {
		return nil, fmt.Errorf("verify: oracle: %d B has fewer lines than %d banks", cfg.SCCBytes, banks)
	}
	s.banks = banks
	for i := 0; i < cfg.Clusters; i++ {
		c, err := newOracleCache(cfg.SCCBytes, cfg.Assoc, cfg.Line(), cfg.ReplPolicy())
		if err != nil {
			return nil, err
		}
		s.caches = append(s.caches, c)
		s.bankFree = append(s.bankFree, make(map[uint32]uint64))
		s.bankCount = append(s.bankCount, make(map[uint32]uint64))
	}
	s.bankConf = make([]uint64, cfg.Clusters)
	s.bankWait = make([]uint64, cfg.Clusters)
	s.wb = make([][]uint64, cfg.Clusters)
	for p := 0; p < procs; p++ {
		s.cluster[p] = p / cfg.ProcsPerCluster
	}
	s.mem = s.memAccess

	if cfg.HierarchyKind() == sysmodel.HierarchyHybrid {
		s.l1 = make([]*ol1, procs)
		s.l1St = make([]cache.Stats, procs)
		for p := range s.l1 {
			s.l1[p] = newOl1(cfg.L1Size(), cfg.Line())
		}
		// Inclusion: a line leaving a cluster's cache is back-invalidated
		// out of that cluster's L1s, whether it left by eviction ...
		s.onEvict = func(c int, evictedLine uint32) {
			addr := evictedLine * s.line
			for p := c * s.ppc; p < (c+1)*s.ppc; p++ {
				if s.l1[p].invalidate(addr) {
					s.l1St[p].Invalidations++
				}
			}
		}
		// ... or by inter-cluster invalidation.
		s.onInvalidate = func(c int, addr uint32) {
			for p := c * s.ppc; p < (c+1)*s.ppc; p++ {
				if s.l1[p].invalidate(addr) {
					s.l1St[p].Invalidations++
				}
			}
		}
		s.mem = s.memAccessHybrid
	}
	return s, nil
}

// bankStart arbitrates addr's line-interleaved bank at time now.
func (s *osys) bankStart(p, c int, addr uint32, now uint64) uint64 {
	b := s.li(addr) % uint32(s.banks)
	s.bankCount[c][b]++
	start := now
	if free := s.bankFree[c][b]; free > now {
		s.bankConf[c]++
		s.bankWait[c] += free - now
		s.st.BankStall[p] += free - now
		start = free
	}
	s.bankFree[c][b] = start + sysmodel.BankAccessCycles
	return start
}

// invalidateOthers kills the line in every holder but the writer.
func (s *osys) invalidateOthers(li, addr uint32, c int, mask uint32) {
	others := mask &^ (uint32(1) << uint(c))
	if others == 0 {
		return
	}
	s.bus.InvalidationTxns++
	for i := range s.caches {
		if others&(uint32(1)<<uint(i)) == 0 {
			continue
		}
		present, dirty := s.caches[i].invalidate(addr)
		if s.onInvalidate != nil {
			s.onInvalidate(i, addr)
		}
		if present {
			s.bus.Invalidations++
			if dirty {
				s.bus.DirtyInvalidations++
			}
		}
	}
}

// fetch services a miss: 100-cycle line transfer plus coherence actions.
func (s *osys) fetch(c int, addr uint32, kind mem.Kind) uint64 {
	s.bus.Fetches++
	li := s.li(addr)
	mask := s.presence[li]
	self := uint32(1) << uint(c)
	if mask&^self != 0 {
		s.bus.FetchesFromSCC++
	}
	if kind == mem.Write {
		s.invalidateOthers(li, addr, c, mask)
		s.presence[li] = self
	} else {
		s.presence[li] = mask | self
	}
	return sysmodel.MemLatency
}

// bufferWrite retires a write completing at ready into cluster c's
// write buffer, stalling processor p only when the buffer is full.
func (s *osys) bufferWrite(p, c int, now, ready uint64) uint64 {
	q := s.wb[c]
	for len(q) > 0 && q[0] <= now {
		q = q[1:]
	}
	if len(q) >= s.wbDepth {
		wait := q[0] - now
		s.st.WriteStall[p] += wait
		now = q[0]
		q = q[1:]
	}
	s.wb[c] = append(q, ready)
	return now
}

// memAccess performs one load or store through processor p's cluster.
func (s *osys) memAccess(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	c := s.cluster[p]
	start := s.bankStart(p, c, addr, now)
	hit, evicted, evictedDirty, evictedValid := s.caches[c].access(addr, kind)
	if hit {
		if kind == mem.Write {
			li := s.li(addr)
			mask := s.presence[li]
			if mask&^(uint32(1)<<uint(c)) != 0 {
				s.invalidateOthers(li, addr, c, mask)
				s.presence[li] = uint32(1) << uint(c)
			}
		}
		return start
	}
	if evictedValid {
		if s.onEvict != nil {
			s.onEvict(c, evicted)
		}
		s.presence[evicted] &^= uint32(1) << uint(c)
		if evictedDirty {
			s.bus.WriteBacks++
		}
	}
	ready := start + s.fetch(c, addr, kind)
	if kind == mem.Read {
		s.st.ReadStall[p] += ready - start
		return ready
	}
	return s.bufferWrite(p, c, start, ready)
}

// memAccessPrivate is the private organization's reference path: one
// cache per processor, no banks, a write-invalidate bus over all caches,
// and misses served over the fast intra-cluster bus when a same-cluster
// cache holds the line.
func (s *osys) memAccessPrivate(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	hit, evicted, evictedDirty, evictedValid := s.caches[p].access(addr, kind)
	self := uint32(1) << uint(p)
	if evictedValid {
		s.presence[evicted] &^= self
		if evictedDirty {
			s.bus.WriteBacks++
		}
	}
	li := s.li(addr)
	if hit {
		if kind == mem.Write {
			mask := s.presence[li]
			if mask&^self != 0 {
				s.invalidateOthers(li, addr, p, mask)
				s.presence[li] = self
			}
		}
		return now
	}
	// Fetch: from a same-cluster cache over the intra-cluster bus if one
	// holds the line (scan holders lowest-id-first), else 100 cycles.
	s.bus.Fetches++
	mask := s.presence[li]
	if mask&^self != 0 {
		s.bus.FetchesFromSCC++
	}
	latency := uint64(sysmodel.MemLatency)
	others := mask &^ self
	for c := 0; others != 0; c++ {
		bit := uint32(1) << uint(c)
		if others&bit != 0 {
			others &^= bit
			if s.group[c] == s.group[p] {
				latency = oracleIntraClusterLatency
				s.bus.IntraClusterFetches++
				break
			}
		}
	}
	if kind == mem.Write {
		s.invalidateOthers(li, addr, p, mask)
		s.presence[li] = self
	} else {
		s.presence[li] = mask | self
	}
	ready := now + latency
	if kind == mem.Read {
		s.st.ReadStall[p] += ready - now
		return ready
	}
	return s.bufferWrite(p, p, now, ready)
}

// memAccessHybrid puts a per-processor write-through L1 in front of the
// shared-cluster path: read hits complete at once, read misses fill the
// L1 after the shared path services them, and every write goes through
// (invalidating same-cluster sibling copies at issue).
func (s *osys) memAccessHybrid(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	st := &s.l1St[p]
	if kind == mem.Write {
		st.Accesses[mem.Write]++
		if !s.l1[p].probe(addr) {
			st.Misses[mem.Write]++
		}
		c := s.cluster[p]
		for q := c * s.ppc; q < (c+1)*s.ppc; q++ {
			if q != p && s.l1[q].invalidate(addr) {
				s.l1St[q].Invalidations++
			}
		}
		return s.memAccess(p, now, addr, mem.Write)
	}
	st.Accesses[kind]++
	if s.l1[p].probe(addr) {
		return now
	}
	st.Misses[kind]++
	t := s.memAccess(p, now, addr, kind)
	if s.l1[p].fill(addr) {
		st.Evictions++
	}
	return t
}

// access performs one reference of processor p, handling the lock
// kinds' documented test-and-test-and-set semantics for owner — the
// processor itself in a parallel run, the process it runs under
// multiprogramming. retry means a spin iteration: the caller must
// re-issue the same reference at the returned time.
func (s *osys) access(p, owner int, now uint64, r mem.Ref) (uint64, bool) {
	switch r.Kind {
	case mem.Lock:
		t := s.mem(p, now, r.Addr, mem.Read)
		if holder, held := s.locks[r.Addr]; held && holder != owner {
			s.st.LockSpins++
			s.st.LockStall[p] += oracleSpinInterval
			return t + oracleSpinInterval, true
		}
		t = s.mem(p, t, r.Addr, mem.Write)
		s.locks[r.Addr] = owner
		return t, false
	case mem.Unlock:
		t := s.mem(p, now, r.Addr, mem.Write)
		delete(s.locks, r.Addr)
		return t, false
	default:
		return s.mem(p, now, r.Addr, r.Kind), false
	}
}

// finish materializes the final per-cluster statistics.
func (s *osys) finish(clock []uint64) *RunStats {
	copy(s.st.ProcFinish, clock)
	for _, t := range clock {
		if t > s.st.Cycles {
			s.st.Cycles = t
		}
	}
	for c, oc := range s.caches {
		s.st.Cache = append(s.st.Cache, oc.stats)
		if s.private {
			// Private caches have no banks; the simulator reports one
			// pseudo-bank carrying the cache's total access count.
			s.st.Bank = append(s.st.Bank, scc.Stats{
				BankAccesses: []uint64{oc.stats.TotalAccesses()},
			})
			continue
		}
		bs := scc.Stats{
			BankConflicts:  s.bankConf[c],
			BankWaitCycles: s.bankWait[c],
			BankAccesses:   make([]uint64, s.banks),
		}
		for b, n := range s.bankCount[c] {
			bs.BankAccesses[b] = n
		}
		s.st.Bank = append(s.st.Bank, bs)
	}
	s.st.Bus = s.bus
	s.st.L1 = s.l1St
	return s.st
}

// RunOracle replays a parallel program on the oracle machine: processors
// advance in global virtual-time order (earliest next issue time, lowest
// id on ties) and synchronize at phase barriers, per the documented
// model. The returned RunStats is compared against the real simulator's
// Result.VerifyStats with DiffRunStats.
func RunOracle(cfg sysmodel.Config, prog *trace.Program, o OracleOptions) (*RunStats, error) {
	procs := cfg.Procs()
	if prog.Procs != procs {
		return nil, fmt.Errorf("verify: oracle: program %q has %d processors, config has %d",
			prog.Name, prog.Procs, procs)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s, err := newOsys(cfg, procs, o)
	if err != nil {
		return nil, err
	}

	clock := make([]uint64, procs)
	var phaseStart uint64
	for _, ph := range prog.Phases {
		streams := ph.Streams
		pos := make([]int, procs)
		next := make([]uint64, procs)
		active := make([]bool, procs)
		for p := 0; p < procs; p++ {
			if len(streams[p]) > 0 {
				next[p] = clock[p] + uint64(streams[p][0].Gap)
				active[p] = true
			}
		}
		for {
			// Pick the earliest scheduled processor, lowest id on ties.
			p := -1
			for q := 0; q < procs; q++ {
				if active[q] && (p < 0 || next[q] < next[p]) {
					p = q
				}
			}
			if p < 0 {
				break
			}
			t := next[p]
			r := streams[p][pos[p]]
			if r.Kind != mem.Idle {
				t2, retry := s.access(p, p, t, r)
				if retry {
					clock[p] = t2
					next[p] = t2
					continue
				}
				t = t2
				s.st.Refs++
			}
			pos[p]++
			clock[p] = t
			if pos[p] == len(streams[p]) {
				active[p] = false
				continue
			}
			next[p] = t + uint64(streams[p][pos[p]].Gap)
		}
		// Barrier: everyone waits for the slowest processor.
		var maxT uint64
		for _, t := range clock {
			if t > maxT {
				maxT = t
			}
		}
		for p := range clock {
			s.st.BarrierWait[p] += maxT - clock[p]
			clock[p] = maxT
		}
		s.st.PhaseCycles = append(s.st.PhaseCycles, maxT-phaseStart)
		phaseStart = maxT
	}
	return s.finish(clock), nil
}

// RunOracleMultiprog replays a multiprogramming workload on the oracle
// machine under the documented round-robin scheduler: a processor whose
// quantum expires queues its process and takes the head; idle processors
// pick up preempted processes immediately.
func RunOracleMultiprog(cfg sysmodel.Config, processes []Process, quantum uint64, o OracleOptions) (*RunStats, error) {
	if len(processes) == 0 {
		return nil, fmt.Errorf("verify: oracle: no processes to schedule")
	}
	if quantum == 0 {
		return nil, fmt.Errorf("verify: oracle: zero scheduler quantum")
	}
	nproc := cfg.Procs()
	s, err := newOsys(cfg, nproc, o)
	if err != nil {
		return nil, err
	}

	pos := make([]int, len(processes))
	queue := make([]int, 0, len(processes))
	current := make([]int, nproc)
	quantumEnd := make([]uint64, nproc)
	clock := make([]uint64, nproc)
	idle := make([]bool, nproc)
	idleSince := make([]uint64, nproc)
	scheduled := make([]bool, nproc)

	for p := 0; p < nproc; p++ {
		if p < len(processes) {
			current[p] = p
			quantumEnd[p] = quantum
			scheduled[p] = true
		} else {
			current[p] = -1
			idle[p] = true
		}
	}
	for i := nproc; i < len(processes); i++ {
		queue = append(queue, i)
	}

	anyIdle := func() bool {
		for _, b := range idle {
			if b {
				return true
			}
		}
		return false
	}

	// wake hands queued processes to idle processors, at or after time t.
	wake := func(t uint64) {
		for len(queue) > 0 {
			victim := -1
			for p := 0; p < nproc; p++ {
				if idle[p] && (victim < 0 || clock[p] < clock[victim]) {
					victim = p
				}
			}
			if victim < 0 {
				return
			}
			pid := queue[0]
			queue = queue[1:]
			idle[victim] = false
			if clock[victim] < t {
				s.st.BarrierWait[victim] += t - clock[victim]
				clock[victim] = t
			}
			s.st.BarrierWait[victim] += clock[victim] - idleSince[victim]
			current[victim] = pid
			s.st.Switches++
			clock[victim] += o.SwitchPenalty
			quantumEnd[victim] = clock[victim] + quantum
			scheduled[victim] = true
		}
	}

	for {
		// Pick the scheduled processor with the earliest clock, lowest
		// id on ties — the documented issue order.
		p := -1
		for q := 0; q < nproc; q++ {
			if scheduled[q] && (p < 0 || clock[q] < clock[p]) {
				p = q
			}
		}
		if p < 0 {
			break
		}
		scheduled[p] = false
		pid := current[p]
		if pid < 0 {
			continue
		}
		st := processes[pid].Refs

		if pos[pid] >= len(st) {
			// Process finished: take the next one or go idle.
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				current[p] = next
				s.st.Switches++
				clock[p] += o.SwitchPenalty
				quantumEnd[p] = clock[p] + quantum
				scheduled[p] = true
			} else {
				current[p] = -1
				idle[p] = true
				idleSince[p] = clock[p]
			}
			continue
		}

		if clock[p] >= quantumEnd[p] && (len(queue) > 0 || anyIdle()) {
			// Quantum expired and someone can use the processor.
			queue = append(queue, pid)
			next := queue[0]
			queue = queue[1:]
			current[p] = next
			if next != pid {
				s.st.Switches++
				clock[p] += o.SwitchPenalty
			}
			quantumEnd[p] = clock[p] + quantum
			wake(clock[p])
			scheduled[p] = true
			continue
		}
		if clock[p] >= quantumEnd[p] {
			// Nobody is waiting: keep running, restart the quantum.
			quantumEnd[p] = clock[p] + quantum
		}

		r := st[pos[pid]]
		t := clock[p] + uint64(r.Gap)
		if r.Kind != mem.Idle {
			var retry bool
			t, retry = s.access(p, pid, t, r)
			if retry {
				clock[p] = t
				scheduled[p] = true
				continue
			}
			s.st.Refs++
		}
		pos[pid]++
		clock[p] = t
		scheduled[p] = true
	}

	// Close out idle accounting to the makespan.
	var maxT uint64
	for _, t := range clock {
		if t > maxT {
			maxT = t
		}
	}
	for p := 0; p < nproc; p++ {
		if idle[p] {
			s.st.BarrierWait[p] += maxT - idleSince[p]
		}
	}
	return s.finish(clock), nil
}
