package sim

import (
	"strings"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// mkProcess builds a process looping over lines bytes of address space at
// base, with `passes` passes and the given compute gap per ref.
func mkProcess(name string, base uint32, lines, passes int, gap uint16) Process {
	var refs []mem.Ref
	for p := 0; p < passes; p++ {
		for i := 0; i < lines; i++ {
			refs = append(refs, mem.Ref{
				Addr: base + uint32(i*sysmodel.LineSize),
				Kind: mem.Read,
				Gap:  gap,
			})
		}
	}
	return Process{Name: name, Refs: refs}
}

func mpCfg(procs, sccBytes int) sysmodel.Config {
	return sysmodel.Config{
		Clusters: 1, ProcsPerCluster: procs, SCCBytes: sccBytes,
		LoadLatency: sysmodel.ImpliedLoadLatency(procs), Assoc: 1,
	}
}

func TestRunMultiprogRejectsBadInput(t *testing.T) {
	if _, err := RunMultiprog(mpCfg(1, 4096), Options{}, nil, 100); err == nil {
		t.Error("accepted empty process list")
	}
	ps := []Process{mkProcess("a", 0x10000, 4, 1, 0)}
	if _, err := RunMultiprog(mpCfg(1, 4096), Options{}, ps, 0); err == nil {
		t.Error("accepted zero quantum")
	}
}

// TestRunMultiprogAddressBound: a process referencing the last line
// below trace.AddrBound runs, and one referencing the bound is refused
// with an error naming the process and the bound.
func TestRunMultiprogAddressBound(t *testing.T) {
	low := mkProcess("low", 0x10000, 4, 2, 1)
	edge := mkProcess("edge", trace.AddrBound-sysmodel.LineSize, 1, 2, 1)
	r, err := RunMultiprog(mpCfg(2, 4096), Options{}, []Process{low, edge}, 100)
	if err != nil {
		t.Fatalf("process one line below the bound refused: %v", err)
	}
	if r.Refs != 10 {
		t.Errorf("Refs = %d, want 10", r.Refs)
	}
	far := mkProcess("far", trace.AddrBound, 1, 1, 0)
	_, err = RunMultiprog(mpCfg(2, 4096), Options{}, []Process{low, far}, 100)
	if err == nil || !strings.Contains(err.Error(), `"far"`) || !strings.Contains(err.Error(), "64 MiB address bound") {
		t.Fatalf("process at the bound: error %v, want one naming \"far\" and the 64 MiB address bound", err)
	}
}

func TestMultiprogSingleProcessSingleProc(t *testing.T) {
	ps := []Process{mkProcess("a", 0x10000, 16, 2, 2)}
	r, err := RunMultiprog(mpCfg(1, 64*1024), Options{}, ps, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 16 cold misses, then hits: 32 refs, 16*100 stall + 32*... gap 2 each.
	if r.Refs != 32 {
		t.Errorf("Refs = %d, want 32", r.Refs)
	}
	if r.Switches != 0 {
		t.Errorf("Switches = %d, want 0 (no competition)", r.Switches)
	}
	agg := r.AggregateSCC()
	if agg.Misses[mem.Read] != 16 {
		t.Errorf("misses = %d, want 16", agg.Misses[mem.Read])
	}
}

func TestMultiprogTimeSlicing(t *testing.T) {
	// Two processes, one processor, small quantum: both finish and the
	// scheduler switches repeatedly.
	ps := []Process{
		mkProcess("a", 0x10000, 8, 50, 10),
		mkProcess("b", 0x80000, 8, 50, 10),
	}
	r, err := RunMultiprog(mpCfg(1, 64*1024), Options{}, ps, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refs != 800 {
		t.Errorf("Refs = %d, want 800 (both processes complete)", r.Refs)
	}
	if r.Switches < 4 {
		t.Errorf("Switches = %d, want several with a small quantum", r.Switches)
	}
}

func TestMultiprogMoreProcsThanProcesses(t *testing.T) {
	ps := []Process{mkProcess("a", 0x10000, 8, 10, 5)}
	r, err := RunMultiprog(mpCfg(4, 64*1024), Options{}, ps, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refs != 80 {
		t.Errorf("Refs = %d, want 80", r.Refs)
	}
	// Three processors never ran.
	ran := 0
	for _, f := range r.ProcFinish {
		if f > 0 {
			ran++
		}
	}
	if ran != 1 {
		t.Errorf("%d processors ran, want 1", ran)
	}
}

func TestMultiprogParallelismHelps(t *testing.T) {
	// Four independent processes with large caches: 4 processors should
	// be much faster than 1.
	// Bases 64 KB apart: working sets fall in distinct sets of the
	// 512 KB direct-mapped SCC, so no interference is possible.
	mk := func() []Process {
		return []Process{
			mkProcess("a", 0x010000, 64, 40, 3),
			mkProcess("b", 0x020000, 64, 40, 3),
			mkProcess("c", 0x030000, 64, 40, 3),
			mkProcess("d", 0x040000, 64, 40, 3),
		}
	}
	r1, err := RunMultiprog(mpCfg(1, 512*1024), Options{}, mk(), sysmodel.TimeQuantum)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunMultiprog(mpCfg(4, 512*1024), Options{}, mk(), sysmodel.TimeQuantum)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Cycles) / float64(r4.Cycles)
	if speedup < 3.0 {
		t.Errorf("speedup = %.2f, want near 4 for independent processes in a big cache", speedup)
	}
}

func TestMultiprogInterferenceInSmallCache(t *testing.T) {
	// Two processes whose working sets collide in a small SCC: running
	// them simultaneously on 2 procs must raise the miss rate relative
	// to time-slicing... actually time-slicing also thrashes on each
	// switch; the paper's point is that the 2-proc case interferes
	// continuously. Check both that misses rise vs a solo run.
	solo := []Process{mkProcess("a", 0x10000, 128, 30, 2)}
	rSolo, err := RunMultiprog(mpCfg(1, 4096), Options{}, solo, sysmodel.TimeQuantum)
	if err != nil {
		t.Fatal(err)
	}
	// Two colliding processes (4 KB apart -> same sets in a 4 KB cache).
	both := []Process{
		mkProcess("a", 0x10000, 128, 30, 2),
		mkProcess("b", 0x11000, 128, 30, 2),
	}
	rBoth, err := RunMultiprog(mpCfg(2, 4096), Options{}, both, sysmodel.TimeQuantum)
	if err != nil {
		t.Fatal(err)
	}
	if rBoth.ReadMissRate() < 2*rSolo.ReadMissRate() {
		t.Errorf("simultaneous miss rate %.3f vs solo %.3f: no destructive interference",
			rBoth.ReadMissRate(), rSolo.ReadMissRate())
	}
}

func TestMultiprogSwitchPenalty(t *testing.T) {
	ps := func() []Process {
		return []Process{
			mkProcess("a", 0x10000, 8, 50, 10),
			mkProcess("b", 0x80000, 8, 50, 10),
		}
	}
	r0, err := RunMultiprog(mpCfg(1, 64*1024), Options{}, ps(), 200)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunMultiprog(mpCfg(1, 64*1024), Options{SwitchPenalty: 500}, ps(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles <= r0.Cycles {
		t.Errorf("switch penalty did not slow the run: %d vs %d", r1.Cycles, r0.Cycles)
	}
}

func TestMultiprogDeterminism(t *testing.T) {
	mk := func() []Process {
		return []Process{
			mkProcess("a", 0x010000, 32, 20, 3),
			mkProcess("b", 0x110000, 48, 15, 2),
			mkProcess("c", 0x210000, 16, 40, 5),
		}
	}
	r1, err := RunMultiprog(mpCfg(2, 16*1024), Options{}, mk(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMultiprog(mpCfg(2, 16*1024), Options{}, mk(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Switches != r2.Switches {
		t.Errorf("multiprog not deterministic: %d/%d vs %d/%d",
			r1.Cycles, r1.Switches, r2.Cycles, r2.Switches)
	}
}

func TestMultiprogAllWorkCompletes(t *testing.T) {
	// Work conservation: total refs simulated equals the sum of process
	// stream lengths, for several processor counts.
	for _, procs := range []int{1, 2, 4, 8} {
		ps := []Process{
			mkProcess("a", 0x010000, 32, 5, 1),
			mkProcess("b", 0x110000, 16, 9, 1),
			mkProcess("c", 0x210000, 8, 3, 1),
			mkProcess("d", 0x310000, 64, 2, 1),
			mkProcess("e", 0x410000, 4, 100, 1),
		}
		want := uint64(32*5 + 16*9 + 8*3 + 64*2 + 4*100)
		r, err := RunMultiprog(mpCfg(procs, 16*1024), Options{}, ps, 500)
		if err != nil {
			t.Fatal(err)
		}
		if r.Refs != want {
			t.Errorf("procs=%d: Refs = %d, want %d", procs, r.Refs, want)
		}
	}
}

// TestMultiprogFlushesMetrics pins the staged-histogram contract on the
// multiprogramming entry point: RunMultiprog stages stall observations
// in per-run local histograms and must merge them into the shared
// registry before returning. A missing Flush leaves the registry at
// zero while the run itself still succeeds, which is exactly the
// silent failure this guards against.
func TestMultiprogFlushesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ps := []Process{mkProcess("a", 0x10000, 16, 2, 2)}
	if _, err := RunMultiprog(mpCfg(1, 64*1024), Options{Metrics: reg}, ps, 1000); err != nil {
		t.Fatal(err)
	}
	snap := reg.Histogram("sim.read_miss_cycles", obs.CycleBuckets).Snapshot()
	// 16 cold read misses (see TestMultiprogSingleProcessSingleProc).
	if snap.Count != 16 {
		t.Errorf("sim.read_miss_cycles count = %d after run, want 16 (flush missing?)", snap.Count)
	}
	if snap.Sum == 0 {
		t.Error("sim.read_miss_cycles sum = 0 after run with misses")
	}
}
