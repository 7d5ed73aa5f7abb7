package sim

import (
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// recorder is a test tracer that tallies events by kind.
type recorder struct {
	events []obs.Event
	byKind [NumEventKinds]uint64
}

func (r *recorder) Emit(e obs.Event) {
	r.events = append(r.events, e)
	r.byKind[e.Kind]++
}

func TestEventKindNames(t *testing.T) {
	for k := 0; k < NumEventKinds; k++ {
		if EventKindNames[k] == "" {
			t.Errorf("EventKindNames[%d] is empty", k)
		}
		if EventKind(k).String() != EventKindNames[k] {
			t.Errorf("EventKind(%d).String() = %q", k, EventKind(k).String())
		}
	}
	if EventKind(200).String() == "" {
		t.Error("out-of-range kind has empty String")
	}
}

// TestTracerSeesCacheActivity checks the event stream agrees with the
// run's cache statistics: one hit/miss event per SCC access of each kind.
func TestTracerSeesCacheActivity(t *testing.T) {
	// Two reads of one line (miss then hit), a write miss, a write hit.
	p := prog(1, []mem.Ref{
		rd(0x1000, 0), rd(0x1004, 0), wr(0x2000, 0), wr(0x2004, 0),
	})
	rec := &recorder{}
	res, err := Run(cfg1(4096), Options{Tracer: rec}, p)
	if err != nil {
		t.Fatal(err)
	}
	scc := res.AggregateSCC()
	readMisses := scc.Misses[mem.Read]
	readHits := scc.Accesses[mem.Read] - readMisses
	writeMisses := scc.Misses[mem.Write]
	writeHits := scc.Accesses[mem.Write] - writeMisses

	if got := rec.byKind[EvReadMiss]; got != readMisses {
		t.Errorf("read-miss events = %d, stats say %d", got, readMisses)
	}
	if got := rec.byKind[EvReadHit]; got != readHits {
		t.Errorf("read-hit events = %d, stats say %d", got, readHits)
	}
	if got := rec.byKind[EvWriteMiss]; got != writeMisses {
		t.Errorf("write-miss events = %d, stats say %d", got, writeMisses)
	}
	if got := rec.byKind[EvWriteHit]; got != writeHits {
		t.Errorf("write-hit events = %d, stats say %d", got, writeHits)
	}
	// Every SCC miss produced a bus fetch event on the bus track.
	if got := rec.byKind[EvBusFetch]; got != res.Snoop.Fetches {
		t.Errorf("bus-fetch events = %d, snoop stats say %d", got, res.Snoop.Fetches)
	}
	for _, e := range rec.events {
		if EventKind(e.Kind) == EvBusFetch && e.Track != 1 {
			t.Errorf("bus fetch on track %d, want 1 (procs..procs+clusters-1)", e.Track)
		}
	}
}

// TestTracerLockEvents checks lock acquire/release pairing and that spin
// iterations appear as duration events.
func TestTracerLockEvents(t *testing.T) {
	lock := uint32(0x8000)
	p := &trace.Program{
		Name: "locks", Procs: 2,
		Phases: []trace.Phase{{Name: "p0", Streams: [][]mem.Ref{
			{
				{Addr: lock, Kind: mem.Lock},
				rd(0x1000, 200), // hold the lock for a while
				{Addr: lock, Kind: mem.Unlock},
			},
			{
				{Addr: lock, Kind: mem.Lock, Gap: 10},
				{Addr: lock, Kind: mem.Unlock},
			},
		}}},
	}
	cfg := sysmodel.Config{
		Clusters: 1, ProcsPerCluster: 2, SCCBytes: 4096,
		LoadLatency: 2, Assoc: 1,
	}
	rec := &recorder{}
	res, err := Run(cfg, Options{Tracer: rec}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rec.byKind[EvLockAcquire] != 2 || rec.byKind[EvLockRelease] != 2 {
		t.Errorf("acquire/release = %d/%d, want 2/2",
			rec.byKind[EvLockAcquire], rec.byKind[EvLockRelease])
	}
	if rec.byKind[EvLockSpin] != res.LockSpins {
		t.Errorf("spin events = %d, stats say %d", rec.byKind[EvLockSpin], res.LockSpins)
	}
	for _, e := range rec.events {
		if EventKind(e.Kind) == EvLockSpin && e.Dur == 0 {
			t.Error("spin event has zero duration")
		}
	}
}

// TestTracerDoesNotPerturbSimulation: the traced run must produce
// byte-identical results to the untraced run.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	mk := func() *trace.Program {
		var s0, s1 []mem.Ref
		for i := uint32(0); i < 200; i++ {
			s0 = append(s0, rd(0x1000+i*32, uint16(i%5)))
			s1 = append(s1, wr(0x9000+i*64, uint16(i%3)))
		}
		return &trace.Program{Name: "perturb", Procs: 2,
			Phases: []trace.Phase{{Name: "p0", Streams: [][]mem.Ref{s0, s1}}}}
	}
	cfg := sysmodel.Config{
		Clusters: 2, ProcsPerCluster: 1, SCCBytes: 4096,
		LoadLatency: 2, Assoc: 1,
	}
	plain, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	traced, err := Run(cfg, Options{Tracer: rec, Metrics: obs.NewRegistry()}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != traced.Cycles || plain.Refs != traced.Refs {
		t.Errorf("traced run diverged: cycles %d vs %d, refs %d vs %d",
			plain.Cycles, traced.Cycles, plain.Refs, traced.Refs)
	}
	if len(rec.events) == 0 {
		t.Error("tracer saw no events")
	}
	// Barrier waits appear for the processor that finishes early.
	if rec.byKind[EvBarrierWait] == 0 {
		t.Error("no barrier-wait events in an imbalanced two-proc run")
	}
}

// TestMetricsHistogramsPopulated: a run with a registry records stall
// histograms without altering results.
func TestMetricsHistogramsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	var refs []mem.Ref
	for i := uint32(0); i < 64; i++ {
		refs = append(refs, rd(0x1000+i*512, 0))
	}
	if _, err := Run(cfg1(4096), Options{Metrics: reg}, prog(1, refs)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("sim.read_miss_cycles", obs.CycleBuckets).Snapshot().Count; n == 0 {
		t.Error("read-miss histogram is empty after a missing run")
	}
}

// TestInstrumentationOnEveryHierarchy: on every hierarchy, a run with
// a tracer and a metrics registry returns exactly the plain run's
// result, records read-miss stalls in the histogram and as events, and
// puts every bus event on a cluster bus track (a private cache's on its
// cluster's).
func TestInstrumentationOnEveryHierarchy(t *testing.T) {
	ss := sharingProg().Phases[0].Streams
	p := prog(4, ss[0], ss[1], ss[1], ss[0])
	for _, h := range hierarchies {
		cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 2, SCCBytes: 4096, LoadLatency: 3, Assoc: 1, Hierarchy: h}
		plain, err := Run(cfg, Options{}, p)
		if err != nil {
			t.Fatal(err)
		}
		reg, rec := obs.NewRegistry(), &recorder{}
		traced, err := Run(cfg, Options{Tracer: rec, Metrics: reg}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: tracing and metrics changed the result", h)
		}
		if n := reg.Histogram("sim.read_miss_cycles", obs.CycleBuckets).Snapshot().Count; n == 0 {
			t.Errorf("%s: read-miss histogram is empty", h)
		}
		if got, want := rec.byKind[EvReadMiss], traced.AggregateSCC().Misses[mem.Read]; got != want {
			t.Errorf("%s: %d read-miss events, statistics say %d", h, got, want)
		}
		if got := rec.byKind[EvBusFetch]; got != traced.Snoop.Fetches {
			t.Errorf("%s: %d bus-fetch events, snoop statistics say %d", h, got, traced.Snoop.Fetches)
		}
		for _, e := range rec.events {
			if k := EventKind(e.Kind); k >= EvBusFetch && (e.Track < 4 || e.Track >= 6) {
				t.Errorf("%s: %s event on track %d, want a cluster bus track 4..5", h, k, e.Track)
				break
			}
		}
	}
}

// TestMultiprogSwitchEvents: context switches produce EvSwitch events
// matching Result.Switches.
func TestMultiprogSwitchEvents(t *testing.T) {
	mkProc := func(name string, base uint32) Process {
		var refs []mem.Ref
		for i := uint32(0); i < 50; i++ {
			refs = append(refs, rd(base+i*32, 1))
		}
		return Process{Name: name, Refs: refs}
	}
	procs := []Process{mkProc("a", 0x1000), mkProc("b", 0x20000), mkProc("c", 0x40000)}
	rec := &recorder{}
	res, err := RunMultiprog(cfg1(4096), Options{Tracer: rec, SwitchPenalty: 10}, procs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("expected context switches with 3 processes on 1 processor")
	}
	if rec.byKind[EvSwitch] != res.Switches {
		t.Errorf("switch events = %d, stats say %d", rec.byKind[EvSwitch], res.Switches)
	}
}
