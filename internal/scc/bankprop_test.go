package scc

import (
	"testing"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// TestSingleStreamBankCountInvariance is a property of the banked SCC a
// single processor can witness: with one access stream (each reference
// issued when the previous one completes, so bank arbitration never
// queues), the hit/miss/eviction statistics must be identical whatever
// the bank count — banking affects only concurrency, never content.
func TestSingleStreamBankCountInvariance(t *testing.T) {
	run := func(banks int) (*cache.Stats, *Stats) {
		s := MustNew(8*1024, 1, banks)
		// Deterministic mixed read/write walk over a footprint ~3x the
		// cache, revisiting lines so hits, misses, evictions and dirty
		// write-backs all occur.
		state := uint32(0x2545F491)
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			state = state*1664525 + 1013904223
			addr := ((state>>8)%1536 + 1) * sysmodel.LineSize
			kind := mem.Read
			if state&7 == 0 {
				kind = mem.Write
			}
			r := access(s, now, addr, kind)
			now = r.start + sysmodel.BankAccessCycles
		}
		return s.CacheStats(), s.Stats()
	}

	base, baseBank := run(1)
	for _, banks := range []int{4, 32} {
		got, bank := run(banks)
		if *got != *base {
			t.Errorf("banks=%d changed cache statistics:\n  1 bank:   %+v\n  %d banks: %+v",
				banks, *base, banks, *got)
		}
		// The serviced-access total must conserve across bankings too.
		var tot, btot uint64
		for _, n := range baseBank.BankAccesses {
			tot += n
		}
		for _, n := range bank.BankAccesses {
			btot += n
		}
		if tot != btot {
			t.Errorf("banks=%d serviced %d accesses, 1 bank serviced %d", banks, btot, tot)
		}
	}
}
