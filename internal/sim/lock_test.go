package sim

import (
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

func lk(addr uint32, gap uint16) mem.Ref {
	return mem.Ref{Addr: addr, Kind: mem.Lock, Gap: gap}
}

func ulk(addr uint32, gap uint16) mem.Ref {
	return mem.Ref{Addr: addr, Kind: mem.Unlock, Gap: gap}
}

func TestLockUncontended(t *testing.T) {
	p := prog(1, []mem.Ref{lk(0x100, 0), wr(0x200, 5), ulk(0x100, 5)})
	r, err := Run(cfg1(4096), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.LockSpins != 0 {
		t.Errorf("uncontended lock spun %d times", r.LockSpins)
	}
	// Three refs: lock (read+write), write, unlock (write) = 4 accesses.
	agg := r.AggregateSCC()
	if agg.TotalAccesses() != 4 {
		t.Errorf("accesses = %d, want 4", agg.TotalAccesses())
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Two processors increment a shared counter under a lock. Proc 0
	// holds the lock for a long compute stretch; proc 1 must spin.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := prog(2,
		[]mem.Ref{lk(0x100, 0), {Kind: mem.Idle, Gap: 2000}, wr(0x200, 0), ulk(0x100, 0)},
		[]mem.Ref{lk(0x100, 50), wr(0x200, 0), ulk(0x100, 0)},
	)
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.LockSpins == 0 {
		t.Error("contended lock never spun")
	}
	if r.LockStall[1] == 0 {
		t.Error("spinning processor recorded no lock stall")
	}
	// Proc 1 cannot finish before proc 0 releases (~2100 cycles).
	if r.ProcFinish[1] < 2000 {
		t.Errorf("proc 1 finished at %d, before the lock was released", r.ProcFinish[1])
	}
}

func TestLockAcrossClustersPingPongs(t *testing.T) {
	// The lock word itself coheres: each acquisition from another
	// cluster invalidates the previous holder's cached copy.
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 1, SCCBytes: 8192, LoadLatency: 2, Assoc: 1}
	p := prog(2,
		[]mem.Ref{lk(0x100, 0), ulk(0x100, 100)},
		[]mem.Ref{lk(0x100, 2000), ulk(0x100, 100)},
	)
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snoop.Invalidations == 0 {
		t.Error("lock transfer between clusters caused no invalidations")
	}
}

func TestLockPrivateMode(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := prog(2,
		[]mem.Ref{lk(0x100, 0), {Kind: mem.Idle, Gap: 1500}, ulk(0x100, 0)},
		[]mem.Ref{lk(0x100, 40), ulk(0x100, 0)},
	)
	r, err := Run(private(cfg), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.LockSpins == 0 {
		t.Error("contended lock never spun in private mode")
	}
}

func TestValidateRejectsLockMisuse(t *testing.T) {
	// Unlock without lock.
	p := prog(1, []mem.Ref{ulk(0x100, 0)})
	if _, err := Run(cfg1(4096), Options{}, p); err == nil {
		t.Error("accepted unlock without lock")
	}
	// Lock held across the phase end.
	p = prog(1, []mem.Ref{lk(0x100, 0)})
	if _, err := Run(cfg1(4096), Options{}, p); err == nil {
		t.Error("accepted lock held at the barrier")
	}
	// Recursive acquisition.
	p = prog(1, []mem.Ref{lk(0x100, 0), lk(0x100, 0), ulk(0x100, 0), ulk(0x100, 0)})
	if _, err := Run(cfg1(4096), Options{}, p); err == nil {
		t.Error("accepted recursive lock")
	}
}

func TestLockFairProgress(t *testing.T) {
	// Eight processors all hammer one lock; everyone must finish.
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 4, SCCBytes: 8192, LoadLatency: 4, Assoc: 1}
	streams := make([][]mem.Ref, 8)
	for p := 0; p < 8; p++ {
		for i := 0; i < 20; i++ {
			streams[p] = append(streams[p], lk(0x100, 10), wr(0x200, 5), ulk(0x100, 5))
		}
	}
	p := &trace.Program{Name: "locks", Procs: 8,
		Phases: []trace.Phase{{Name: "x", Streams: streams}}}
	r, err := Run(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refs != 8*20*3 {
		t.Errorf("refs = %d, want %d (every critical section completed)", r.Refs, 8*20*3)
	}
}

// TestMultiprogLocksBelongToProcesses: a lock belongs to the process
// that took it, not to the processor it ran on. One processor runs two
// processes that lock one word under a 16-cycle quantum, shorter than
// the lock word's read miss, so the first is preempted holding the
// lock: the second, on the same processor, must spin until the first
// runs again and releases it.
func TestMultiprogLocksBelongToProcesses(t *testing.T) {
	cs := []mem.Ref{lk(0x8000, 0), wr(0x10, 0), ulk(0x8000, 0)}
	procs := []Process{{Name: "a", Refs: cs}, {Name: "b", Refs: cs}}
	rec := &recorder{}
	r, err := RunMultiprog(mpCfg(1, 4096), Options{Tracer: rec}, procs, 16)
	if err != nil {
		t.Fatal(err)
	}
	held := false
	for _, e := range rec.events {
		switch EventKind(e.Kind) {
		case EvLockAcquire:
			if held {
				t.Fatalf("lock acquired at cycle %d while another process held it (%d switches, %d spins)",
					e.TS, r.Switches, r.LockSpins)
			}
			held = true
		case EvLockRelease:
			held = false
		}
	}
	if r.LockSpins == 0 {
		t.Errorf("the second process never spun on the preempted holder's lock (%d switches)", r.Switches)
	}
}
