// Package snoop implements the inter-cluster coherence substrate: the
// shared bus over which the four Shared Cluster Caches are kept coherent
// with a write-invalidate snooping protocol (Section 2.2.2 of the paper).
//
// "A write to a line in a particular SCC causes that line to be
// invalidated, if present, in each of the other SCCs. ... the latency to
// fetch a cache line from main memory or from another SCC over the snoopy
// bus is fixed at 100 cycles."
//
// The protocol is implemented with a presence table (one bit per cluster
// per line), which is functionally identical to having every SCC snoop
// every bus transaction, and lets the simulator report exactly the
// statistics the paper uses: the number of invalidations actually
// performed. The table is one slice indexed by line, grown by doubling
// as fetches reach higher lines; the traces the simulator runs lie
// below trace.AddrBound, which keeps it at most 4 Mi entries at 16-byte
// lines. Bus bandwidth contention is off by default — the paper models
// a fixed 100-cycle transfer and considers contention only at the SCC
// banks — but can be enabled (Occupancy > 0) for ablation studies.
package snoop

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// Invalidator is the view of an SCC the bus needs: the ability to kill a
// resident line. (*scc.SCC) satisfies it.
type Invalidator interface {
	// Invalidate removes the line containing addr if present, reporting
	// whether it was present and dirty.
	Invalidate(addr uint32) (present, dirty bool)
}

// Stats accumulates coherence-traffic statistics.
type Stats struct {
	// Fetches counts line transfers into an SCC (read and write misses).
	Fetches uint64
	// FetchesFromSCC counts fetches satisfied by another SCC rather than
	// main memory (the line was present in some other cluster).
	FetchesFromSCC uint64
	// InvalidationTxns counts bus invalidation broadcasts (one per write
	// that found the line shared).
	InvalidationTxns uint64
	// Invalidations counts line copies actually invalidated in other
	// SCCs — the paper's "total number of invalidations actually
	// performed in the system".
	Invalidations uint64
	// DirtyInvalidations counts invalidated copies that were dirty
	// (ownership transfer with data).
	DirtyInvalidations uint64
	// WriteBacks counts dirty evictions written back over the bus.
	WriteBacks uint64
	// BusWaitCycles is total cycles transactions waited for the bus
	// (only nonzero when Occupancy > 0).
	BusWaitCycles uint64
	// IntraClusterFetches counts fetches satisfied over the fast
	// intra-cluster bus (private-cache organization only).
	IntraClusterFetches uint64
	// MemBankWait is total cycles fetches queued behind busy memory
	// banks (banked-memory ablation only).
	MemBankWait uint64
}

// Verifier observes coherence-state transitions for invariant checking.
// Each method is called after the bus has fully applied the transition
// (presence updated, invalidations performed), so the verifier sees the
// post-state. Implementations must not call back into the bus's mutating
// methods. nil (the default) disables verification; every call site is
// behind a nil check, so the unverified hot path pays only the branch —
// the same contract as Hook.
type Verifier interface {
	// AfterFetch observes a completed Fetch: cluster now holds addr's
	// line; a write fetch has invalidated every other copy.
	AfterFetch(now uint64, cluster int, addr uint32, kind mem.Kind)
	// AfterWriteShared observes a WriteShared that actually broadcast an
	// invalidation (the private-line early-out is not reported: it
	// changes no state).
	AfterWriteShared(now uint64, cluster int, addr uint32)
	// AfterEvicted observes an eviction notice: cluster's presence bit
	// for lineIndex is now clear.
	AfterEvicted(now uint64, cluster int, lineIndex uint32, dirty bool)
}

// TxnKind classifies a bus transaction for the tracing hook.
type TxnKind uint8

const (
	// TxnFetch is a line transfer into a cache (read or write miss).
	TxnFetch TxnKind = iota
	// TxnInvalidate is an invalidation broadcast.
	TxnInvalidate
	// TxnWriteBack is a dirty eviction written back to memory.
	TxnWriteBack
)

// Bus is the snoopy inter-cluster bus plus the coherence state.
type Bus struct {
	sccs []Invalidator
	// presence[li] is the mask of clusters holding line li; a line past
	// its end has no holder (see setMask).
	presence []uint32
	stats    Stats

	// Hook, when non-nil, observes every bus transaction at its grant
	// time: the kind, the grant cycle, the transaction's latency in
	// cycles (0 for logically-instant invalidations and write-backs),
	// the requesting cache/cluster, and the address. It is called inline
	// from the simulation hot path, must be cheap, and must not call
	// back into the bus. nil (the default) disables the hook at the cost
	// of one branch per transaction.
	Hook func(kind TxnKind, start, dur uint64, cluster int, addr uint32)

	// Verifier, when non-nil, observes every coherence-state transition
	// after it is applied (see the Verifier interface). Set by the
	// simulator when sim.Options.Verify is enabled.
	Verifier Verifier

	// Occupancy is the number of cycles each bus transaction holds the
	// bus. Zero reproduces the paper's fixed-latency model with no bus
	// queueing.
	Occupancy int
	freeAt    uint64

	// GroupOf and IntraLatency support the paper's alternative cluster
	// organization (private per-processor caches on a fast intra-cluster
	// bus): when GroupOf is non-nil, a fetch that finds the line in a
	// cache of the requester's own group completes in IntraLatency
	// cycles instead of MemLatency. GroupOf[i] is the group (cluster) of
	// cache i.
	GroupOf      []int
	IntraLatency int

	// MemBanks/MemBankOccupancy, when positive, model line-interleaved
	// main-memory banks: each memory fetch occupies its bank for
	// MemBankOccupancy cycles, and concurrent fetches to the same bank
	// queue. The paper assumes a flat 100-cycle memory (MemBanks = 0);
	// this is an ablation of that assumption.
	MemBanks         int
	MemBankOccupancy int
	memBankFree      []uint64

	// lineShift is log2 of the line size the connected caches use; line
	// index = addr >> lineShift. New defaults it to the paper's 16-byte
	// lines; SetLineBytes overrides it for the line-size sweep axis.
	lineShift uint32
}

// New creates a bus connecting the given SCCs. The slice index is the
// cluster id used in all subsequent calls.
func New(sccs []Invalidator) *Bus {
	if len(sccs) == 0 || len(sccs) > 32 {
		panic(fmt.Sprintf("snoop: %d clusters, want 1..32", len(sccs)))
	}
	return &Bus{sccs: sccs, lineShift: sysmodel.LineShift(sysmodel.LineSize)}
}

// SetLineBytes tells the bus the line size (a power of two) its caches
// use, so presence is tracked at the same line granularity. Call before
// simulation starts; the default is the paper's 16-byte line.
func (b *Bus) SetLineBytes(lineBytes int) {
	b.lineShift = sysmodel.LineShift(lineBytes)
}

// Stats returns the accumulated coherence statistics.
func (b *Bus) Stats() *Stats { return &b.stats }

// acquire models bus arbitration when Occupancy > 0 and returns the grant
// time for a transaction issued at now.
func (b *Bus) acquire(now uint64) uint64 {
	if b.Occupancy <= 0 {
		return now
	}
	start := now
	if b.freeAt > start {
		b.stats.BusWaitCycles += b.freeAt - start
		start = b.freeAt
	}
	b.freeAt = start + uint64(b.Occupancy)
	return start
}

// Fetch services a miss: cluster fetches the line containing addr at cycle
// now, for an access of the given kind. It updates presence, performs any
// invalidations a write requires, and returns the cycle at which the line
// is available in the requesting SCC.
func (b *Bus) Fetch(now uint64, cluster int, addr uint32, kind mem.Kind) uint64 {
	start := b.acquire(now)
	b.stats.Fetches++
	li := addr >> b.lineShift
	mask := b.mask(li)
	self := uint32(1) << uint(cluster)
	if mask&^self != 0 {
		b.stats.FetchesFromSCC++
	}
	latency := uint64(sysmodel.MemLatency)
	if b.GroupOf != nil && b.IntraLatency > 0 {
		// Private-cache organization: a copy held by a same-group cache
		// is transferred over the fast intra-cluster bus.
		others := mask &^ self
		for c := 0; others != 0; c++ {
			bit := uint32(1) << uint(c)
			if others&bit != 0 {
				others &^= bit
				if b.GroupOf[c] == b.GroupOf[cluster] {
					latency = uint64(b.IntraLatency)
					b.stats.IntraClusterFetches++
					break
				}
			}
		}
	}
	if latency == sysmodel.MemLatency && b.MemBanks > 0 && b.MemBankOccupancy > 0 {
		// Banked main memory: queue behind a busy bank.
		if b.memBankFree == nil {
			b.memBankFree = make([]uint64, b.MemBanks)
		}
		bank := li % uint32(b.MemBanks)
		if f := b.memBankFree[bank]; f > start {
			b.stats.MemBankWait += f - start
			start = f
		}
		b.memBankFree[bank] = start + uint64(b.MemBankOccupancy)
	}
	if kind == mem.Write {
		b.invalidateOthers(li, addr, cluster, mask)
		b.setMask(li, self)
	} else {
		b.setMask(li, mask|self)
	}
	if b.Hook != nil {
		b.Hook(TxnFetch, start, latency, cluster, addr)
	}
	if b.Verifier != nil {
		b.Verifier.AfterFetch(start, cluster, addr, kind)
	}
	return start + latency
}

// WriteShared services a write hit to a line that may be shared: if any
// other cluster holds the line, an invalidation is broadcast. It returns
// true if a bus transaction was needed. Invalidation completes logically
// at once (the paper does not charge the writer for invalidation latency;
// the cost shows up as the victims' later misses).
func (b *Bus) WriteShared(now uint64, cluster int, addr uint32) bool {
	li := addr >> b.lineShift
	mask := b.mask(li)
	self := uint32(1) << uint(cluster)
	if mask&^self == 0 {
		return false
	}
	b.acquire(now)
	b.invalidateOthers(li, addr, cluster, mask)
	b.setMask(li, self)
	if b.Hook != nil {
		b.Hook(TxnInvalidate, now, 0, cluster, addr)
	}
	if b.Verifier != nil {
		b.Verifier.AfterWriteShared(now, cluster, addr)
	}
	return true
}

// MaybeShared reports whether a cluster other than cluster holds the
// line containing addr; a line no fetch has set has no holder. It is
// WriteShared's early-out lifted into an inlinable probe — WriteShared
// itself is over the inlining budget, so a caller on a hot write-hit
// path uses this to skip the call entirely on the common private-line
// case (skipping is exactly what WriteShared would have done: no state
// change, no statistics).
func (b *Bus) MaybeShared(addr uint32, cluster int) bool {
	li := addr >> b.lineShift
	return li < uint32(len(b.presence)) && b.presence[li]&^(uint32(1)<<uint(cluster)) != 0
}

// invalidateOthers kills the line in every cluster in mask except the
// writer and accounts for the traffic.
func (b *Bus) invalidateOthers(li uint32, addr uint32, cluster int, mask uint32) {
	self := uint32(1) << uint(cluster)
	others := mask &^ self
	if others == 0 {
		return
	}
	b.stats.InvalidationTxns++
	for c := 0; others != 0; c++ {
		bit := uint32(1) << uint(c)
		if others&bit == 0 {
			continue
		}
		others &^= bit
		present, dirty := b.sccs[c].Invalidate(addr)
		if present {
			b.stats.Invalidations++
			if dirty {
				b.stats.DirtyInvalidations++
			}
		}
	}
}

// Evicted informs the bus that cluster dropped the line containing addr
// (capacity/conflict eviction), clearing its presence bit. Dirty evictions
// consume a write-back transaction.
func (b *Bus) Evicted(now uint64, cluster int, lineIndex uint32, dirty bool) {
	b.setMask(lineIndex, b.mask(lineIndex)&^(uint32(1)<<uint(cluster)))
	if dirty {
		b.acquire(now)
		b.stats.WriteBacks++
		if b.Hook != nil {
			b.Hook(TxnWriteBack, now, 0, cluster, lineIndex<<b.lineShift)
		}
	}
	if b.Verifier != nil {
		b.Verifier.AfterEvicted(now, cluster, lineIndex, dirty)
	}
}

// Present reports which clusters currently hold the line containing addr,
// as a bitmask. Exposed for tests and invariant checks.
func (b *Bus) Present(addr uint32) uint32 {
	return b.mask(addr >> b.lineShift)
}

// VisitPresence calls fn for every line with a nonzero presence mask,
// in line order. Used by the invariant checker's end-of-run residency
// audit.
func (b *Bus) VisitPresence(fn func(lineIndex uint32, mask uint32)) {
	for li, mask := range b.presence {
		if mask != 0 {
			fn(uint32(li), mask)
		}
	}
}

// SetPresence overwrites the presence mask of addr's line. It exists
// solely as a fault-injection seam for invariant-checker tests (seeding
// a corrupted presence table that the checker must catch); the simulator
// never calls it.
func (b *Bus) SetPresence(addr uint32, mask uint32) {
	b.setMask(addr>>b.lineShift, mask)
}

// mask returns line li's presence mask.
func (b *Bus) mask(li uint32) uint32 {
	if li < uint32(len(b.presence)) {
		return b.presence[li]
	}
	return 0
}

// setMask sets line li's presence mask. A nonzero mask past the end of
// the table first grows it by doubling, from 1024 lines, until it
// covers li; a zero one there is already recorded.
func (b *Bus) setMask(li, mask uint32) {
	if li >= uint32(len(b.presence)) {
		if mask == 0 {
			return
		}
		n := max(len(b.presence), 1<<10)
		for n <= int(li) {
			n *= 2
		}
		grown := make([]uint32, n)
		copy(grown, b.presence)
		b.presence = grown
	}
	b.presence[li] = mask
}
