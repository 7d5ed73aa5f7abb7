package rdmodel

import (
	"math/rand"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/trace"
)

// profileSink keeps the benchmarked builds observable to the compiler.
var profileSink *Profile

// BenchmarkBuildProfile builds the profile of a deterministic program
// shaped like the paper's largest grid column: 4 clusters of 8
// processors, two phases, and a shared footprint of 96K lines, three
// times the default cap, so that compaction and far distances occur.
func BenchmarkBuildProfile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const procs, clusters = 32, 4
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := BuildProfile(comp, clusters, DefaultCap())
		if err != nil {
			b.Fatal(err)
		}
		profileSink = prof
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(comp.Refs()), "ns/ref")
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
