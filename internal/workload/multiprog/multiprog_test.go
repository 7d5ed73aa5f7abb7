package multiprog

import (
	"runtime"
	"testing"
	"unsafe"

	"sccsim/internal/mem"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

func TestGenerateDefaults(t *testing.T) {
	ps, err := Generate(Params{RefsPerApp: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 8 {
		t.Fatalf("got %d processes, want 8", len(ps))
	}
	names := Names()
	for i, p := range ps {
		if p.Name != names[i] {
			t.Errorf("process %d = %q, want %q", i, p.Name, names[i])
		}
		if len(p.Refs) < 5000 {
			t.Errorf("%s has %d refs, want >= 5000", p.Name, len(p.Refs))
		}
	}
}

// TestGenerateAllocatesItsStreams: each stream is sized once, to its
// exact length, so Generate allocates little beyond the streams it
// returns — not the arrays an append-grown stream leaves behind.
func TestGenerateAllocatesItsStreams(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps, err := Generate(Params{RefsPerApp: 100000, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var refs uint64
	for _, p := range ps {
		refs += uint64(len(p.Refs))
	}
	streams := refs * uint64(unsafe.Sizeof(mem.Ref{}))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > streams+streams/10 {
		t.Errorf("Generate allocated %d bytes for %d bytes of streams (%.2fx), want within 10%%",
			alloc, streams, float64(alloc)/float64(streams))
	}
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(Params{RefsPerApp: 10}); err == nil {
		t.Error("accepted tiny RefsPerApp")
	}
	if _, err := Generate(Params{RefsPerApp: 5000, Apps: []string{"nope"}}); err == nil {
		t.Error("accepted unknown app")
	}
	if _, err := Generate(Params{RefsPerApp: 5000, Apps: []string{}}); err == nil {
		t.Error("accepted empty app list")
	}
}

func TestAppSubset(t *testing.T) {
	ps, err := Generate(Params{RefsPerApp: 5000, Apps: []string{"compress", "xlisp"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Name != "compress" || ps[1].Name != "xlisp" {
		t.Errorf("subset = %v", []string{ps[0].Name, ps[1].Name})
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Generate(Params{RefsPerApp: 20000, Seed: 9})
	b, _ := Generate(Params{RefsPerApp: 20000, Seed: 9})
	for i := range a {
		if len(a[i].Refs) != len(b[i].Refs) {
			t.Fatalf("%s: lengths differ", a[i].Name)
		}
		for j := range a[i].Refs {
			if a[i].Refs[j] != b[i].Refs[j] {
				t.Fatalf("%s ref %d differs", a[i].Name, j)
			}
		}
	}
}

func TestDisjointAddressSpaces(t *testing.T) {
	ps, err := Generate(Params{RefsPerApp: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[uint32]int{}
	for i, p := range ps {
		for _, r := range p.Refs {
			if r.Kind == mem.Idle {
				continue
			}
			line := sysmodel.LineAddr(r.Addr)
			if prev, ok := owner[line]; ok && prev != i {
				t.Fatalf("processes %s and %s share line %#x", ps[prev].Name, p.Name, line)
			}
			owner[line] = i
		}
	}
}

func TestFootprintOrdering(t *testing.T) {
	// espresso must touch far fewer distinct lines than wave5.
	ps, err := Generate(Params{RefsPerApp: 200000, Seed: 3, Apps: []string{"espresso", "wave5"}})
	if err != nil {
		t.Fatal(err)
	}
	count := func(p sim.Process) int {
		lines := map[uint32]struct{}{}
		for _, r := range p.Refs {
			if r.Kind != mem.Idle {
				lines[sysmodel.LineAddr(r.Addr)] = struct{}{}
			}
		}
		return len(lines)
	}
	e, w := count(ps[0]), count(ps[1])
	if e*3 > w {
		t.Errorf("espresso lines %d vs wave5 %d: want wave5 >= 3x", e, w)
	}
}

func TestQuantumScaling(t *testing.T) {
	if Quantum(0) == 0 {
		t.Error("zero quantum")
	}
	if Quantum(600_000) <= Quantum(60_000) {
		t.Error("quantum does not scale with the reference budget")
	}
}

// Integration: the headline multiprogramming behaviour — larger SCC
// recovers the interference loss (paper Figs. 5-6).
func TestInterferenceRecoveredByLargeCache(t *testing.T) {
	mk := func() []sim.Process {
		ps, err := Generate(Params{RefsPerApp: 60_000, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	quantum := Quantum(60_000)
	run := func(procs, scc int) uint64 {
		cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: procs, SCCBytes: scc,
			LoadLatency: sysmodel.ImpliedLoadLatency(procs), Assoc: 1}
		r, err := sim.RunMultiprog(cfg, sim.Options{}, mk(), quantum)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	small8 := run(8, 4*1024)
	big8 := run(8, 512*1024)
	if small8 <= big8 {
		t.Fatalf("8 procs: 4KB (%d cycles) not slower than 512KB (%d)", small8, big8)
	}
	ratio := float64(small8) / float64(big8)
	t.Logf("8-proc exec-time ratio 4KB/512KB = %.2f (paper: ~4.1)", ratio)
	if ratio < 1.5 {
		t.Errorf("interference spread = %.2f, want >= 1.5", ratio)
	}
}
