package rdmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// fullMissProbs is the reference for missProbs: the same recurrence
// with every one of the assoc states summed and advanced at every
// distance, zeros included.
func fullMissProbs(pmiss []float64, lines, assoc int) {
	if assoc == 1 {
		surv := 1.0
		decay := 1 - 1/float64(lines)
		for d := range pmiss {
			pmiss[d] = 1 - surv
			surv *= decay
		}
		return
	}
	q := float64(assoc) / float64(lines)
	pk := make([]float64, assoc)
	pk[0] = 1
	for d := range pmiss {
		var pHit float64
		for k := 0; k < assoc; k++ {
			pHit += pk[k]
		}
		pmiss[d] = 1 - pHit
		for k := assoc - 1; k > 0; k-- {
			pk[k] = pk[k]*(1-q) + pk[k-1]*q
		}
		pk[0] *= 1 - q
	}
}

// TestMissProbsMatchFullRecurrence: missProbs, which sums and advances
// only the states a distance can reach, fills exactly the full
// recurrence's floats at 2, 4 and 8 ways and at half and all of the
// lines, in tables shorter and longer than the associativity.
func TestMissProbsMatchFullRecurrence(t *testing.T) {
	for _, lines := range []int{256, 1024, 32768} {
		for _, assoc := range []int{2, 4, 8, lines / 2, lines} {
			for _, top := range []int{1, assoc - 1, assoc, 2*assoc + 3, 3000} {
				if top < 1 || top > 3000 {
					continue // keeps the reference's O(top·A) cost small
				}
				got, want := make([]float64, top), make([]float64, top)
				missProbs(got, lines, assoc)
				fullMissProbs(want, lines, assoc)
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("%d lines, %d-way, table of %d: pmiss[%d] = %v, full recurrence %v",
							lines, assoc, top, d, got[d], want[d])
					}
				}
			}
		}
	}
}

// densePredict is the dense reference for Predict: a miss-probability
// table as long as the cap from the full recurrence, and every slot of
// every histogram scanned, with sizes past the cap clamped to cap lines
// of at most cap ways. Predict and Curve.At must agree with it bit for
// bit.
func densePredict(p *Profile, sccBytes, assoc int) *Prediction {
	lines := sccBytes / sysmodel.LineSize
	pred := &Prediction{
		SCCBytes: sccBytes, Assoc: assoc,
		Cluster: make([]CacheCounts, len(p.Cluster)),
	}
	if lines > p.Cap {
		lines = p.Cap
		assoc = min(assoc, lines)
	}
	pmiss := make([]float64, p.Cap)
	fullMissProbs(pmiss, lines, assoc)
	rates := make([]float64, len(p.Cluster))
	for i := range p.Cluster {
		h := &p.Cluster[i]
		c := CacheCounts{Reads: float64(h.Reads()), Writes: float64(h.Writes())}
		c.ReadMisses = denseExpectedMisses(float64(h.ColdReads+h.FarReads), h.Read, pmiss)
		c.WriteMisses = denseExpectedMisses(float64(h.ColdWrites+h.FarWrites), h.Write, pmiss)
		pred.Cluster[i] = c
		pred.Reads += c.Reads
		pred.ReadMisses += c.ReadMisses
		rates[i] = c.ReadMissRate()
	}
	if pred.Reads > 0 {
		pred.ReadMissRate = pred.ReadMisses / pred.Reads
	}
	pred.EstPhaseCycles = make([]uint64, len(p.Issue))
	pred.EstCycles = p.estimateCycles(rates, pred.EstPhaseCycles)
	return pred
}

// denseExpectedMisses adds to base the expected misses of every
// histogram slot: hist[d] accesses at reuse distance d, each missing
// with probability pmiss[d].
func denseExpectedMisses(base float64, hist []uint64, pmiss []float64) float64 {
	for d, n := range hist {
		if n != 0 {
			base += pmiss[d] * float64(n)
		}
	}
	return base
}

// checkQueries holds Predict, at every associativity in assocs up to
// the size's line count, and Curve.At to densePredict at every size.
func checkQueries(t *testing.T, what string, p *Profile, sizes, assocs []int) {
	t.Helper()
	curve := p.Curve()
	for _, size := range sizes {
		for _, assoc := range assocs {
			if assoc > size/sysmodel.LineSize {
				continue
			}
			got, err := p.Predict(size, assoc)
			if err != nil {
				t.Fatalf("%s: Predict(%d, %d): %v", what, size, assoc, err)
			}
			if want := densePredict(p, size, assoc); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d bytes, %d-way (cap %d lines): Predict %+v, dense reference %+v",
					what, size, assoc, p.Cap, got, want)
			}
		}
		got, err := curve.At(size)
		if err != nil {
			t.Fatalf("%s: Curve.At(%d): %v", what, size, err)
		}
		want := densePredict(p, size, 1)
		if got.ReadMissRate != want.ReadMissRate || got.EstCycles != want.EstCycles {
			t.Fatalf("%s, %d bytes (cap %d lines): Curve.At %+v, dense reference miss rate %v, %d cycles",
				what, size, p.Cap, got, want.ReadMissRate, want.EstCycles)
		}
	}
}

// TestQueriesMatchDense: Predict and Curve.At read only a profile's
// nonzero histogram slots and a miss-probability table cut at its
// largest tracked distance, and must give exactly the dense
// evaluation's floats: at 1, 2, 4 and 8 ways, every paper size and
// sizes past the cap, on profiles from both builders — among them caps
// so small that every paper size and associativity lies past them.
func TestQueriesMatchDense(t *testing.T) {
	largest := sysmodel.SCCSizes[len(sysmodel.SCCSizes)-1]
	sizes := append([]int(nil), sysmodel.SCCSizes...)
	sizes = append(sizes, sysmodel.LineSize, 5120, 2*largest, 8*largest)
	assocs := []int{1, 2, 4, 8}

	prog := syntheticProgram(t, 8, 20_000, 2048)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, clusters := range []int{1, 2, 4} {
		for _, capLines := range []int{DefaultCap(), 700, 6} {
			prof, err := BuildProfile(comp, clusters, capLines)
			if err != nil {
				t.Fatal(err)
			}
			checkQueries(t, "BuildProfile", prof, sizes, assocs)
		}
	}

	rng := rand.New(rand.NewSource(3))
	var processes [][]mem.Ref
	for pid := 0; pid < 6; pid++ {
		processes = append(processes, mixedStream(rng, 5_000, 3, 1+uint32(pid)<<12, 3000))
	}
	for _, capLines := range []int{DefaultCap(), 700, 6} {
		prof, err := BuildScheduledProfile("mp", processes, 4, 2_000, capLines)
		if err != nil {
			t.Fatal(err)
		}
		checkQueries(t, "BuildScheduledProfile", prof, sizes, assocs)
	}
}

// TestPredictClampsAssocPastCap: a cache of more lines than the cap is
// modeled as a cache of cap lines, and such a cache is at most fully
// associative, so an associativity past the cap predicts the
// fully-associative LRU threshold at the cap: every tracked distance
// hits, and only cold and far accesses miss.
func TestPredictClampsAssocPastCap(t *testing.T) {
	prog := syntheticProgram(t, 2, 10_000, 2048)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	const capLines = 512
	prof, err := BuildProfile(comp, 1, capLines)
	if err != nil {
		t.Fatal(err)
	}
	h := &prof.Cluster[0]
	wantReads := float64(h.ColdReads + h.FarReads)
	wantWrites := float64(h.ColdWrites + h.FarWrites)
	full, err := prof.Predict(capLines*sysmodel.LineSize, capLines)
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []int{2 * capLines, 64 * capLines} {
		for _, assoc := range []int{capLines, capLines + 1, 2 * capLines, lines} {
			pred, err := prof.Predict(lines*sysmodel.LineSize, assoc)
			if err != nil {
				t.Fatal(err)
			}
			c := pred.Cluster[0]
			if c.ReadMisses != wantReads || c.WriteMisses != wantWrites {
				t.Errorf("%d lines, %d-way, cap %d: predicted %v read and %v write misses, want the %v and %v cold or far accesses",
					lines, assoc, capLines, c.ReadMisses, c.WriteMisses, wantReads, wantWrites)
			}
			if pred.EstCycles != full.EstCycles || pred.Assoc != assoc {
				t.Errorf("%d lines, %d-way: %d estimated cycles (assoc %d), want the fully-associative cap's %d",
					lines, assoc, pred.EstCycles, pred.Assoc, full.EstCycles)
			}
		}
	}
}

// TestHeapBytesChargesQueryForm: a profile is charged 8 bytes per
// histogram slot and Issue/ReadRefs entry, plus 12 per nonzero slot,
// which the query form lists as a distance and a count.
func TestHeapBytesChargesQueryForm(t *testing.T) {
	prog := syntheticProgram(t, 4, 5_000, 1024)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 2, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	var slots, nonzero int64
	for _, h := range prof.Cluster {
		for _, hist := range [][]uint64{h.Read, h.Write} {
			slots += int64(len(hist))
			for _, n := range hist {
				if n != 0 {
					nonzero++
				}
			}
		}
	}
	for i := range prof.Issue {
		slots += int64(len(prof.Issue[i]) + len(prof.ReadRefs[i]))
	}
	if nonzero == 0 {
		t.Fatal("profile has no tracked distances")
	}
	if got, want := prof.HeapBytes(), 8*slots+12*nonzero; got != want {
		t.Errorf("HeapBytes %d, want %d: 8 B x %d slots + 12 B x %d nonzero slots", got, want, slots, nonzero)
	}
}
