// Package sysmodel holds the architectural constants and the system
// configuration type for the shared-cluster-cache multiprocessor studied in
// Nayfeh & Olukotun (ISCA 1994). Every other package takes its line size,
// latencies and cluster geometry from here so that the paper's assumptions
// live in exactly one place.
package sysmodel

import (
	"fmt"
	"math/bits"
)

// Architectural constants fixed by the paper (Section 2).
const (
	// LineSize is the cache line size in bytes. The paper chooses 16 B to
	// reduce false sharing between clusters.
	LineSize = 16

	// MemLatency is the fixed latency, in processor cycles, to fetch a
	// cache line from main memory or from another SCC over the snoopy bus.
	MemLatency = 100

	// BanksPerProcessor is the number of SCC banks provided per processor
	// in the cluster ("each SCC has four banks for each processor").
	BanksPerProcessor = 4

	// DefaultClusters is the number of clusters in the paper's parallel-
	// application experiments.
	DefaultClusters = 4

	// ICacheSize is the per-processor instruction cache size in bytes
	// (16 KB in every floorplan in Section 4).
	ICacheSize = 16 * 1024

	// BankAccessCycles is how long an SCC bank is occupied by one access.
	BankAccessCycles = 1

	// TimeQuantum is the multiprogramming scheduler's round-robin time
	// quantum in processor cycles (Section 2.3.2).
	TimeQuantum = 5_000_000
)

// Simulator limits that Config.Validate enforces (the paper's machines
// use at most 4 clusters of 8 processors).
const (
	// MaxProcs is the largest total processor count: the simulator's
	// scheduler packs a processor id into 8 bits of its keys.
	MaxProcs = 256
	// MaxClusters is the largest cluster count: the coherence bus keeps
	// one presence bit per cluster (per private cache, in the private
	// hierarchy) in a 32-bit word.
	MaxClusters = 32
)

// SCCSizes is the set of shared-cluster-cache sizes (bytes) swept in the
// paper's design space, 4 KB through 512 KB in powers of two.
var SCCSizes = []int{
	4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024,
	64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
}

// ProcsPerClusterSweep is the set of processors-per-cluster values swept in
// the paper's design space.
var ProcsPerClusterSweep = []int{1, 2, 4, 8}

// Replacement policy names for set-associative caches. The empty string
// means the default, true-LRU.
const (
	ReplLRU    = "lru"
	ReplRandom = "random"
)

// Hierarchy names for the cache organization axis. The empty string
// means the default, the paper's shared SCC.
const (
	// HierarchyShared is the paper's organization: one SCC per cluster,
	// shared by every processor in it, banked and bus-coherent.
	HierarchyShared = "shared"
	// HierarchyPrivate splits each cluster's SCC capacity into private
	// per-processor caches kept coherent over the snoopy bus — the
	// counterfactual the paper argues against.
	HierarchyPrivate = "private"
	// HierarchyHybrid puts a small private write-through L1 in front of
	// each processor, backed by the cluster's shared SCC (two-level).
	HierarchyHybrid = "hybrid"
)

// DefaultL1Bytes is the per-processor L1 size assumed by the hybrid
// hierarchy when Config.L1Bytes is zero.
const DefaultL1Bytes = 4 * 1024

// Config describes one point in the processor-cache design space.
//
// The LineBytes, Repl, Hierarchy and L1Bytes axes default to the
// paper's fixed choices when zero-valued and carry ",omitempty" JSON
// tags, so configurations that do not exercise them serialize exactly
// as they did before the axes existed.
type Config struct {
	// Clusters is the number of clusters on the snoopy bus.
	Clusters int
	// ProcsPerCluster is the number of processors sharing each SCC.
	ProcsPerCluster int
	// SCCBytes is the size of each shared cluster cache in bytes.
	SCCBytes int
	// LoadLatency is the processor load-to-use latency in cycles: 2 for a
	// single-processor cluster, 3 for an on-chip SCC (extra arbitration
	// stage), 4 for an MCM cluster (extra cache access stage). It does not
	// affect the memory-system simulation (Section 3 methodology); it is
	// applied afterwards via the pipeline model (Section 5).
	LoadLatency int
	// Assoc is the SCC associativity. The paper uses direct-mapped
	// caches (Assoc = 1); higher values support ablation studies.
	Assoc int
	// LineBytes is the cache line size in bytes, a power of two between
	// 4 and 1024. Zero means the paper's LineSize (16 B).
	LineBytes int `json:",omitempty"`
	// Repl selects the replacement policy for set-associative caches:
	// "lru" (the default; also what "" means) or "random"
	// (deterministically seeded, so runs stay reproducible). Ignored for
	// direct-mapped caches, where replacement is forced.
	Repl string `json:",omitempty"`
	// Hierarchy selects the cache organization: "shared" (the paper's
	// banked cluster cache; also what "" means), "private"
	// (per-processor caches, bus-coherent), or "hybrid" (private
	// write-through L1s in front of the shared SCC).
	Hierarchy string `json:",omitempty"`
	// L1Bytes is the per-processor L1 size for the hybrid hierarchy.
	// Zero means DefaultL1Bytes. Must be zero for other hierarchies.
	L1Bytes int `json:",omitempty"`
}

// Default returns the paper's base configuration: four clusters, p
// processors per cluster, an SCC of sccBytes, direct mapped, with the load
// latency implied by the cluster implementation in Section 4.
func Default(p, sccBytes int) Config {
	return Config{
		Clusters:        DefaultClusters,
		ProcsPerCluster: p,
		SCCBytes:        sccBytes,
		LoadLatency:     ImpliedLoadLatency(p),
		Assoc:           1,
	}
}

// ImpliedLoadLatency returns the load latency of the cheapest Section 4
// implementation of a cluster with p processors: 2 cycles for one
// processor with a private cache, 3 cycles for a 2-processor single-chip
// SCC, and 4 cycles for the 4- and 8-processor MCM clusters.
func ImpliedLoadLatency(p int) int {
	switch {
	case p <= 1:
		return 2
	case p == 2:
		return 3
	default:
		return 4
	}
}

// Procs returns the total number of processors in the system.
func (c Config) Procs() int { return c.Clusters * c.ProcsPerCluster }

// Banks returns the number of banks in each SCC.
func (c Config) Banks() int { return c.ProcsPerCluster * BanksPerProcessor }

// Line returns the effective cache line size in bytes: LineBytes, or
// the paper's LineSize when the axis is unset.
func (c Config) Line() int {
	if c.LineBytes == 0 {
		return LineSize
	}
	return c.LineBytes
}

// ReplPolicy returns the effective replacement policy name: Repl, or
// ReplLRU when the axis is unset.
func (c Config) ReplPolicy() string {
	if c.Repl == "" {
		return ReplLRU
	}
	return c.Repl
}

// HierarchyKind returns the effective hierarchy name: Hierarchy, or
// HierarchyShared when the axis is unset.
func (c Config) HierarchyKind() string {
	if c.Hierarchy == "" {
		return HierarchyShared
	}
	return c.Hierarchy
}

// L1Size returns the effective per-processor L1 size for the hybrid
// hierarchy: L1Bytes, or DefaultL1Bytes when the axis is unset.
func (c Config) L1Size() int {
	if c.L1Bytes == 0 {
		return DefaultL1Bytes
	}
	return c.L1Bytes
}

// Validate reports a descriptive error if the configuration is not
// simulatable.
func (c Config) Validate() error {
	lb := c.Line()
	switch {
	case c.Clusters < 1:
		return fmt.Errorf("sysmodel: Clusters = %d, want >= 1", c.Clusters)
	case c.ProcsPerCluster < 1:
		return fmt.Errorf("sysmodel: ProcsPerCluster = %d, want >= 1", c.ProcsPerCluster)
	case c.Clusters > MaxClusters:
		return fmt.Errorf("sysmodel: Clusters = %d, want <= %d", c.Clusters, MaxClusters)
	case c.ProcsPerCluster > MaxProcs || c.Procs() > MaxProcs:
		return fmt.Errorf("sysmodel: %d clusters x %d processors = %d processors, want <= %d",
			c.Clusters, c.ProcsPerCluster, c.Clusters*c.ProcsPerCluster, MaxProcs)
	case lb < 4 || lb > 1024 || lb&(lb-1) != 0:
		return fmt.Errorf("sysmodel: LineBytes = %d, want a power of two in 4..1024", lb)
	case c.SCCBytes < lb:
		return fmt.Errorf("sysmodel: SCCBytes = %d, want >= line size %d", c.SCCBytes, lb)
	case c.SCCBytes%lb != 0:
		return fmt.Errorf("sysmodel: SCCBytes = %d not a multiple of the line size %d", c.SCCBytes, lb)
	case c.Assoc < 1:
		return fmt.Errorf("sysmodel: Assoc = %d, want >= 1", c.Assoc)
	case c.SCCBytes/lb < c.Assoc:
		return fmt.Errorf("sysmodel: SCCBytes = %d too small for associativity %d", c.SCCBytes, c.Assoc)
	case (c.SCCBytes/lb)%c.Assoc != 0:
		return fmt.Errorf("sysmodel: %d lines not divisible into %d-way sets", c.SCCBytes/lb, c.Assoc)
	case c.LoadLatency < 2 || c.LoadLatency > 4:
		return fmt.Errorf("sysmodel: LoadLatency = %d, want 2..4", c.LoadLatency)
	}
	switch c.Repl {
	case "", ReplLRU, ReplRandom:
	default:
		return fmt.Errorf("sysmodel: Repl = %q, want %q or %q", c.Repl, ReplLRU, ReplRandom)
	}
	switch c.Hierarchy {
	case "", HierarchyShared, HierarchyPrivate, HierarchyHybrid:
	default:
		return fmt.Errorf("sysmodel: Hierarchy = %q, want %q, %q or %q",
			c.Hierarchy, HierarchyShared, HierarchyPrivate, HierarchyHybrid)
	}
	if c.HierarchyKind() != HierarchyPrivate {
		// The shared SCC (alone or behind hybrid L1s) interleaves lines
		// over Banks() banks selected by a mask.
		if b := c.Banks(); b&(b-1) != 0 {
			return fmt.Errorf("sysmodel: %d banks per SCC (%d processors x %d) is not a power of two",
				b, c.ProcsPerCluster, BanksPerProcessor)
		}
		if c.SCCBytes/lb < c.Banks() {
			return fmt.Errorf("sysmodel: SCCBytes = %d has fewer lines than its %d banks", c.SCCBytes, c.Banks())
		}
	}
	switch c.HierarchyKind() {
	case HierarchyPrivate:
		if c.Procs() > MaxClusters {
			return fmt.Errorf("sysmodel: %d private caches, want <= %d on the coherence bus",
				c.Procs(), MaxClusters)
		}
		if c.SCCBytes/c.ProcsPerCluster < lb*c.Assoc {
			return fmt.Errorf("sysmodel: SCCBytes = %d too small to split into %d private caches",
				c.SCCBytes, c.ProcsPerCluster)
		}
		if (c.SCCBytes/c.ProcsPerCluster)%lb != 0 {
			return fmt.Errorf("sysmodel: SCCBytes = %d does not split into %d line-multiple private caches",
				c.SCCBytes, c.ProcsPerCluster)
		}
		if (c.SCCBytes/c.ProcsPerCluster/lb)%c.Assoc != 0 {
			return fmt.Errorf("sysmodel: private cache of %d lines not divisible into %d-way sets",
				c.SCCBytes/c.ProcsPerCluster/lb, c.Assoc)
		}
		fallthrough
	case HierarchyShared:
		if c.L1Bytes != 0 {
			return fmt.Errorf("sysmodel: L1Bytes = %d only applies to the %q hierarchy", c.L1Bytes, HierarchyHybrid)
		}
	case HierarchyHybrid:
		l1 := c.L1Size()
		if l1 < lb || l1%lb != 0 {
			return fmt.Errorf("sysmodel: L1Bytes = %d, want a multiple of the line size %d", l1, lb)
		}
	}
	return nil
}

// String renders the configuration the way the paper labels design points,
// e.g. "4x2P/32KB(L3)".
func (c Config) String() string {
	return fmt.Sprintf("%dx%dP/%dKB(L%d)", c.Clusters, c.ProcsPerCluster, c.SCCBytes/1024, c.LoadLatency)
}

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint32) uint32 { return addr &^ (LineSize - 1) }

// LineIndex returns the global line number containing addr.
func LineIndex(addr uint32) uint32 { return addr / LineSize }

// LineShift returns log2 of lineBytes, a power of two: the shift that
// turns an address into its line index on hot paths.
func LineShift(lineBytes int) uint32 { return uint32(bits.Len(uint(lineBytes)) - 1) }

// LineShift returns log2 of the effective line size.
func (c Config) LineShift() uint32 { return LineShift(c.Line()) }

// Axes bundles the architecture axes that widen the paper's design
// space beyond (size, processors): line size, associativity,
// replacement policy and hierarchy. The zero value means "the paper's
// defaults" and applying it changes nothing, so sweeps that do not set
// axes reproduce the historical configurations bit for bit.
type Axes struct {
	// LineBytes overrides the cache line size (0: the paper's 16 B).
	LineBytes int `json:"line_bytes,omitempty"`
	// Assoc overrides the cache associativity (0: direct-mapped).
	Assoc int `json:"assoc,omitempty"`
	// Repl overrides the replacement policy ("": lru).
	Repl string `json:"repl,omitempty"`
	// Hierarchy overrides the cache organization ("": shared).
	Hierarchy string `json:"hierarchy,omitempty"`
	// L1Bytes overrides the hybrid hierarchy's per-processor L1 size
	// (0: DefaultL1Bytes). Only valid with Hierarchy "hybrid".
	L1Bytes int `json:"l1_bytes,omitempty"`
}

// IsZero reports whether every axis keeps its paper default.
func (a Axes) IsZero() bool { return a == Axes{} }

// Apply overlays the non-default axes onto c and returns the result.
func (a Axes) Apply(c Config) Config {
	if a.LineBytes != 0 {
		c.LineBytes = a.LineBytes
	}
	if a.Assoc != 0 {
		c.Assoc = a.Assoc
	}
	if a.Repl != "" {
		c.Repl = a.Repl
	}
	if a.Hierarchy != "" {
		c.Hierarchy = a.Hierarchy
	}
	if a.L1Bytes != 0 {
		c.L1Bytes = a.L1Bytes
	}
	return c
}

// Validate checks the axes against the paper's base configuration — the
// cheap shape check callers run before a sweep builds per-point
// configurations (each of which is validated again in full).
func (a Axes) Validate() error {
	return a.Apply(Default(1, 64*1024)).Validate()
}
