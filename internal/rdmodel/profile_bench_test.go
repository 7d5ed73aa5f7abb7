package rdmodel

import (
	"math/rand"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// profileSink keeps the benchmarked builds observable to the compiler.
var profileSink *Profile

// benchTrace is a deterministic program shaped like the paper's
// largest grid column: 4 clusters of 8 processors, two phases, and a
// shared footprint of 96K lines, three times the default cap, so that
// compaction and far distances occur.
func benchTrace(b *testing.B) *trace.Compiled {
	rng := rand.New(rand.NewSource(1))
	const procs = 32
	p := &trace.Program{Name: "bench", Procs: procs}
	for ph := 0; ph < 2; ph++ {
		phase := trace.Phase{Name: "main"}
		for pr := 0; pr < procs; pr++ {
			phase.Streams = append(phase.Streams, mixedStream(rng, 20_000, 3, 1, 96<<10))
		}
		p.Phases = append(p.Phases, phase)
	}
	comp, err := trace.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	return comp
}

// benchClusters is benchTrace's cluster count.
const benchClusters = 4

// BenchmarkBuildProfile builds benchTrace's profile.
func BenchmarkBuildProfile(b *testing.B) {
	comp := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := BuildProfile(comp, benchClusters, DefaultCap())
		if err != nil {
			b.Fatal(err)
		}
		profileSink = prof
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(comp.Refs()), "ns/ref")
}

// predictionSink keeps the benchmarked queries observable to the
// compiler.
var predictionSink any

// BenchmarkPredict times one direct-mapped Predict on benchTrace's
// profile, the paper's sizes in turn.
func BenchmarkPredict(b *testing.B) {
	prof, err := BuildProfile(benchTrace(b), benchClusters, DefaultCap())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := prof.Predict(sysmodel.SCCSizes[i%len(sysmodel.SCCSizes)], 1)
		if err != nil {
			b.Fatal(err)
		}
		predictionSink = pred
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
}

// BenchmarkCurveAt times one Curve.At on benchTrace's profile, the
// paper's sizes in turn.
func BenchmarkCurveAt(b *testing.B) {
	prof, err := BuildProfile(benchTrace(b), benchClusters, DefaultCap())
	if err != nil {
		b.Fatal(err)
	}
	curve := prof.Curve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := curve.At(sysmodel.SCCSizes[i%len(sysmodel.SCCSizes)])
		if err != nil {
			b.Fatal(err)
		}
		predictionSink = pt
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
}

// BenchmarkBuildScheduledProfile builds a multiprogramming profile of
// eight processes with disjoint 16K-line footprints (128K lines in all,
// four times the default cap) time-sliced onto four slots.
func BenchmarkBuildScheduledProfile(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const perProcess = 40_000
	var processes [][]mem.Ref
	var refs int
	for pid := 0; pid < 8; pid++ {
		st := mixedStream(rng, perProcess, 3, 1+uint32(pid)<<14, 16<<10)
		processes = append(processes, st)
		for _, r := range st {
			if r.Kind != mem.Idle {
				refs++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := BuildScheduledProfile("bench", processes, 4, perProcess*5/8, DefaultCap())
		if err != nil {
			b.Fatal(err)
		}
		profileSink = prof
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
}
