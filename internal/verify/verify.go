// Package verify is the simulator's independent correctness layer: a
// coherence invariant checker that audits the protocol state on every
// bus transaction, and a deliberately naive oracle simulator (oracle.go)
// whose results the optimized simulator is diffed against.
//
// The package exists because the hot paths the paper's numbers depend on
// (compiled traces, the flat presence table, the fused direct-mapped
// access path) are the most optimized and least self-checking code in
// the repo. Byte-identity against an older implementation only proves
// the fast path matches the slow one — it says nothing when both share a
// bug. The checker and the oracle are written against the documented
// model, not against the implementation, so they fail when the
// implementation drifts from the model.
//
// verify deliberately does not import internal/sim: sim wires a Checker
// into its machinery via Options.Verify, and the oracle consumes the
// same trace/config inputs sim does, returning RunStats that sim results
// convert into (Result.VerifyStats).
package verify

import (
	"fmt"
	"strings"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/scc"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
)

// Options configures runtime verification. A non-nil *Options in
// sim.Options.Verify enables the invariant checker; the zero value is a
// sensible default. Options carries no mutable state, so one value may
// be shared across concurrent runs.
type Options struct {
	// MaxViolations bounds how many violations are recorded in detail
	// before further ones are only counted. 0 means the default of 8.
	MaxViolations int
}

func (o *Options) maxViolations() int {
	if o == nil || o.MaxViolations <= 0 {
		return 8
	}
	return o.MaxViolations
}

// Cluster is the view of one cluster's cache the checker needs:
// side-effect-free residency queries. (*scc.SCC) satisfies it.
type Cluster interface {
	// Probe reports whether addr's line is in the tag store.
	Probe(addr uint32) bool
	// VisitLines calls fn for every resident line (including lines
	// parked in a victim buffer).
	VisitLines(fn func(lineIndex uint32, dirty bool))
}

// Final is the end-of-run summary FinishRun audits: the run's headline
// counters and the per-cluster statistics the conservation invariants
// are checked against.
type Final struct {
	// Cycles is the run's makespan.
	Cycles uint64
	// Refs is the number of references the run reports executing.
	Refs uint64
	// ExpectedRefs is the non-idle reference count of the input trace,
	// or 0 when the caller cannot cheaply know it (the check is skipped).
	ExpectedRefs uint64
	// Cache[i] is cluster i's tag-store statistics.
	Cache []*cache.Stats
	// Bank[i] is cluster i's bank contention statistics.
	Bank []*scc.Stats
	// BankAccessCycles is the per-access bank occupancy in cycles.
	BankAccessCycles uint64
}

// Checker asserts coherence-protocol and accounting invariants during a
// single simulation run. It implements snoop.Verifier for the per-
// transaction checks; the simulator additionally reports every cache
// access (OnAccess) and the end-of-run summary (FinishRun). A Checker is
// single-run, single-goroutine state — build one per run.
type Checker struct {
	opts     *Options
	bus      *snoop.Bus
	clusters []Cluster
	// victimSlack relaxes the present⇒resident direction of the audit:
	// with a victim buffer enabled, an entry silently displaced out of
	// the buffer leaves a benign stale presence bit behind (documented
	// in scc.MissVictim), so only resident⇒present is exact.
	victimSlack bool

	// accesses[c] counts cache accesses the simulator performed through
	// cluster c, maintained via OnAccess and compared against the tag
	// store's own Accesses counters at FinishRun: every access must be
	// accounted exactly once as a hit or a miss.
	accesses []uint64

	// locks[addr] is the owner holding the lock word at addr, kept
	// from the simulator's acquire and release reports (OnLockAcquire,
	// OnLockRelease) alone.
	locks map[uint32]int

	// procOf[pid] is the processor running process pid and pidOn[p]
	// the process processor p runs, kept from the multiprogramming
	// scheduler's dispatch reports (OnDispatch) alone.
	procOf, pidOn map[int]int

	// lineShift is log2 of the caches' line size, used to convert the
	// line indices the bus reports back to byte addresses for probes.
	// NewChecker defaults it to the paper's 16-byte line; SetLineBytes
	// overrides it for the line-size sweep axis.
	lineShift uint32

	violations []string
	dropped    int
}

// NewChecker builds a checker over a bus and its clusters' caches.
// clusters[i] must be the cache the bus invalidates as cluster i.
// victimSlack declares that clusters have victim buffers (see the field
// comment). The caller is responsible for setting bus.Verifier.
func NewChecker(o *Options, bus *snoop.Bus, clusters []Cluster, victimSlack bool) *Checker {
	c := &Checker{
		opts:        o,
		bus:         bus,
		clusters:    clusters,
		victimSlack: victimSlack,
		accesses:    make([]uint64, len(clusters)),
		locks:       make(map[uint32]int),
		procOf:      make(map[int]int),
		pidOn:       make(map[int]int),
	}
	c.SetLineBytes(sysmodel.LineSize)
	return c
}

// SetLineBytes tells the checker the line size (a power of two) the
// audited caches use; call before the run starts when the line-size
// axis deviates from the paper's 16 bytes.
func (c *Checker) SetLineBytes(lineBytes int) {
	c.lineShift = 0
	for lb := lineBytes; lb > 1; lb >>= 1 {
		c.lineShift++
	}
}

func (c *Checker) violate(format string, args ...any) {
	if len(c.violations) >= c.opts.maxViolations() {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Err returns the violations recorded so far as one error, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	msg := strings.Join(c.violations, "; ")
	if c.dropped > 0 {
		msg = fmt.Sprintf("%s; (+%d more violations)", msg, c.dropped)
	}
	return fmt.Errorf("%d invariant violation(s): %s", len(c.violations)+c.dropped, msg)
}

// OnAccess records that the simulator performed one cache access through
// cluster's SCC (any kind, including lock-word reads and spin re-reads).
func (c *Checker) OnAccess(cluster int) { c.accesses[cluster]++ }

// OnLockAcquire records that owner — a processor, or under
// multiprogramming a process — took the lock word at addr at cycle now.
// Taking a lock another owner holds breaks mutual exclusion.
func (c *Checker) OnLockAcquire(now uint64, owner int, addr uint32) {
	if holder, held := c.locks[addr]; held && holder != owner {
		c.violate("lock@%d: owner %d acquired lock %#x that owner %d holds", now, owner, addr, holder)
	}
	c.locks[addr] = owner
}

// OnLockRelease records that owner released the lock word at addr at
// cycle now. Only the owner holding a lock may release it.
func (c *Checker) OnLockRelease(now uint64, owner int, addr uint32) {
	if holder, held := c.locks[addr]; !held || holder != owner {
		c.violate("unlock@%d: owner %d released lock %#x it does not hold", now, owner, addr)
	}
	delete(c.locks, addr)
}

// OnDispatch records that the multiprogramming scheduler put process
// pid on processor proc at cycle now, in place of the process proc ran
// before. Putting a process on a processor while another processor
// still runs it would run it on two processors at once.
func (c *Checker) OnDispatch(now uint64, proc, pid int) {
	if q, ok := c.procOf[pid]; ok && q != proc {
		c.violate("dispatch@%d: process %d put on processor %d while processor %d runs it", now, pid, proc, q)
	}
	if prev, ok := c.pidOn[proc]; ok {
		delete(c.procOf, prev)
	}
	c.procOf[pid], c.pidOn[proc] = proc, pid
}

// OnWarmupReset resynchronizes the access counters with a statistics
// warmup reset: the tag stores' counters were just zeroed, so the
// checker's shadow counts restart too.
func (c *Checker) OnWarmupReset() {
	for i := range c.accesses {
		c.accesses[i] = 0
	}
}

// AfterFetch implements snoop.Verifier: after a fetch, the requester
// must hold the line and its presence bit must be set; after a write
// fetch, no other cluster may still hold a copy — "a line written by one
// cluster is not silently present in another".
func (c *Checker) AfterFetch(now uint64, cluster int, addr uint32, kind mem.Kind) {
	self := uint32(1) << uint(cluster)
	mask := c.bus.Present(addr)
	if mask&self == 0 {
		c.violate("fetch@%d: cluster %d fetched addr %#x but its presence bit is clear (mask %#x)",
			now, cluster, addr, mask)
	}
	if !c.clusters[cluster].Probe(addr) {
		c.violate("fetch@%d: cluster %d fetched addr %#x but the line is not in its cache",
			now, cluster, addr)
	}
	if kind == mem.Write {
		if mask&^self != 0 {
			c.violate("write-fetch@%d: cluster %d wrote addr %#x yet presence mask %#x still names other clusters",
				now, cluster, addr, mask)
		}
		c.checkOthersNotResident(now, cluster, addr, "write-fetch")
	}
}

// AfterWriteShared implements snoop.Verifier: after an invalidation
// broadcast the writer must be the sole holder.
func (c *Checker) AfterWriteShared(now uint64, cluster int, addr uint32) {
	self := uint32(1) << uint(cluster)
	if mask := c.bus.Present(addr); mask != self {
		c.violate("write-shared@%d: cluster %d invalidated addr %#x but presence mask is %#x, want %#x",
			now, cluster, addr, mask, self)
	}
	c.checkOthersNotResident(now, cluster, addr, "write-shared")
}

func (c *Checker) checkOthersNotResident(now uint64, cluster int, addr uint32, what string) {
	for i, cl := range c.clusters {
		if i != cluster && cl.Probe(addr) {
			c.violate("%s@%d: cluster %d wrote addr %#x but cluster %d still holds a copy",
				what, now, cluster, addr, i)
		}
	}
}

// AfterEvicted implements snoop.Verifier: an eviction notice means the
// line left the cache and the presence bit must be clear.
func (c *Checker) AfterEvicted(now uint64, cluster int, lineIndex uint32, dirty bool) {
	addr := lineIndex << c.lineShift
	if mask := c.bus.Present(addr); mask&(uint32(1)<<uint(cluster)) != 0 {
		c.violate("evict@%d: cluster %d evicted line %d but its presence bit is still set (mask %#x)",
			now, cluster, lineIndex, mask)
	}
	if c.clusters[cluster].Probe(addr) {
		c.violate("evict@%d: cluster %d evicted line %d but the line is still in its cache",
			now, cluster, lineIndex)
	}
}

// Audit performs the full presence-vs-residency cross check:
//
//   - every resident line's presence bit is set (exact always, victim
//     buffer or not — parked victims keep their bit);
//   - every set presence bit corresponds to a resident line (exact only
//     without victim buffers; see victimSlack);
//   - no presence bit names a cluster beyond the cluster count;
//   - the flat and paged presence representations agree across the
//     migration boundary (Bus.PresenceConsistency).
//
// Audit is a full state walk — O(cache lines + presence footprint) — so
// the simulator runs it at end of run (FinishRun), not per transaction.
func (c *Checker) Audit() {
	for i, cl := range c.clusters {
		bit := uint32(1) << uint(i)
		cl.VisitLines(func(li uint32, dirty bool) {
			if c.bus.Present(li<<c.lineShift)&bit == 0 {
				c.violate("audit: cluster %d holds line %d but its presence bit is clear", i, li)
			}
		})
	}
	allClusters := uint32(1)<<uint(len(c.clusters)) - 1
	c.bus.VisitPresence(func(li uint32, mask uint32) {
		if mask&^allClusters != 0 {
			c.violate("audit: line %d presence mask %#x names nonexistent clusters (have %d)",
				li, mask, len(c.clusters))
		}
		if c.victimSlack {
			return
		}
		addr := li << c.lineShift
		for i, cl := range c.clusters {
			if mask&(uint32(1)<<uint(i)) != 0 && !cl.Probe(addr) {
				c.violate("audit: line %d presence mask %#x claims cluster %d holds it but the line is absent",
					li, mask, i)
			}
		}
	})
	if err := c.bus.PresenceConsistency(); err != nil {
		c.violate("audit: %v", err)
	}
}

// FinishRun runs the end-of-run audit plus the accounting conservation
// invariants and returns the accumulated violations as one error (nil
// when the run is clean):
//
//   - hits + misses == accesses: each cluster's tag store accounted
//     every access the simulator issued exactly once (Misses[k] <=
//     Accesses[k] per kind, and TotalAccesses matches the checker's own
//     per-access count);
//   - the run executed exactly the input trace's reference count;
//   - per-bank busy cycles never exceed elapsed cycles (a bank occupied
//     BankAccessCycles per access cannot have been busy longer than the
//     run, modulo the final access running off the end).
func (c *Checker) FinishRun(f Final) error {
	c.Audit()
	for i, cs := range f.Cache {
		for k := 0; k < mem.NumKinds; k++ {
			if cs.Misses[k] > cs.Accesses[k] {
				c.violate("cluster %d: %d misses of kind %d exceed %d accesses",
					i, cs.Misses[k], k, cs.Accesses[k])
			}
		}
		if i < len(c.accesses) && cs.TotalAccesses() != c.accesses[i] {
			c.violate("cluster %d: tag store accounted %d accesses (hits+misses) but the simulator issued %d",
				i, cs.TotalAccesses(), c.accesses[i])
		}
	}
	if f.ExpectedRefs != 0 && f.Refs != f.ExpectedRefs {
		c.violate("run executed %d references, trace has %d", f.Refs, f.ExpectedRefs)
	}
	for i, bs := range f.Bank {
		if bs == nil {
			continue
		}
		for b, n := range bs.BankAccesses {
			if busy := n * f.BankAccessCycles; busy > f.Cycles+f.BankAccessCycles {
				c.violate("cluster %d bank %d: %d accesses imply %d busy cycles, run lasted %d",
					i, b, n, busy, f.Cycles)
			}
		}
	}
	return c.Err()
}
