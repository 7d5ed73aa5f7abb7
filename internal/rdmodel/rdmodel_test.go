package rdmodel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// refStack is the naive O(N·M) reuse-distance reference: a plain LRU
// stack of lines.
type refStack struct{ stack []uint32 }

// access returns the exact reuse distance, or distCold.
func (s *refStack) access(line uint32) int {
	for i, ln := range s.stack {
		if ln == line {
			copy(s.stack[1:], s.stack[:i])
			s.stack[0] = line
			return i
		}
	}
	s.stack = append([]uint32{line}, s.stack...)
	return distCold
}

// cappedStack is refStack with the tracker's cap: it keeps only the cap
// most recent lines, and reports distFar for a line it has seen but no
// longer holds.
type cappedStack struct {
	refStack
	cap  int
	seen map[uint32]bool
}

func newCappedStack(capLines int) *cappedStack {
	return &cappedStack{cap: capLines, seen: map[uint32]bool{}}
}

func (s *cappedStack) access(line uint32) int {
	d := s.refStack.access(line)
	if len(s.stack) > s.cap {
		s.stack = s.stack[:s.cap]
	}
	if d == distCold && s.seen[line] {
		d = distFar
	}
	s.seen[line] = true
	return d
}

// TestTrackerMatchesNaive: the bitmap tracker must agree with the
// naive LRU stack on every access — exact distances below the cap,
// far/cold classification otherwise — across enough accesses to force
// many compactions. The small cap keeps every distance inside the
// recent words; the large one keeps more lines through a compaction
// than the recent words hold, so distances, clears and the rebuild
// also go through the Fenwick tree.
func TestTrackerMatchesNaive(t *testing.T) {
	for _, cap := range []int{16, 2048} {
		tk := newTracker(cap, 3*cap)
		ref := newCappedStack(cap)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 10*4*cap; i++ {
			// A skewed universe a few times the cap exercises cold,
			// short, long and far distances.
			line := uint32(rng.Intn(3 * cap))
			if rng.Intn(2) == 0 {
				line = uint32(rng.Intn(cap / 4))
			}
			want := ref.access(line)
			if got := tk.access(line); got != want {
				t.Fatalf("cap %d, access %d (line %d): tracker says %d, naive says %d", cap, i, line, got, want)
			}
		}
	}
}

// TestTrackerSequential: a strided cold scan then a re-scan has fully
// predictable distances.
func TestTrackerSequential(t *testing.T) {
	tk := newTracker(8, 6)
	for i := 0; i < 6; i++ {
		if d := tk.access(uint32(i)); d != distCold {
			t.Fatalf("first touch of line %d: distance %d, want cold", i, d)
		}
	}
	// Re-scanning in the same order: each line has 5 distinct lines
	// between its two accesses.
	for i := 0; i < 6; i++ {
		if d := tk.access(uint32(i)); d != 5 {
			t.Fatalf("second touch of line %d: distance %d, want 5", i, d)
		}
	}
}

// naiveDirectMapped counts read misses of a direct-mapped cache of
// `lines` lines over a single merged stream.
func naiveDirectMapped(refs []mem.Ref, lines int) (reads, readMisses uint64) {
	tags := make(map[uint32]uint32) // set -> line
	for _, r := range refs {
		rd, wr := accessesOf(r.Kind)
		if rd+wr == 0 {
			continue
		}
		line := sysmodel.LineIndex(r.Addr)
		for i := 0; i < rd+wr; i++ {
			set := line % uint32(lines)
			hit := tags[set] == line
			tags[set] = line
			if i < rd {
				reads++
				if !hit {
					readMisses++
				}
			}
		}
	}
	return reads, readMisses
}

// syntheticProgram builds a small deterministic parallel program. The
// line universe is *sparse* — universeLines distinct random line
// indices spread over a wide range — so the simulator's modulo set
// indexing behaves like the uniform hashing the statistical
// direct-mapped model assumes (a dense sequential footprint would be
// nearly conflict-free under modulo indexing and the model would
// overpredict its conflicts; see Predict's doc).
func syntheticProgram(t *testing.T, procs, refsPerProc int, universeLines int) *trace.Program {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	universe := make([]uint32, universeLines)
	for i := range universe {
		universe[i] = uint32(1 + rng.Intn(1<<22))
	}
	p := &trace.Program{Name: "synth", Procs: procs, Phases: []trace.Phase{{Name: "main"}}}
	for pr := 0; pr < procs; pr++ {
		st := make([]mem.Ref, 0, refsPerProc)
		for i := 0; i < refsPerProc; i++ {
			// Clustered reuse: mostly a small hot set, a tail over the
			// whole universe, so the histogram has real shape.
			var line uint32
			if rng.Intn(4) > 0 {
				line = universe[rng.Intn(universeLines/8)]
			} else {
				line = universe[rng.Intn(universeLines)]
			}
			addr := line * sysmodel.LineSize
			kind := mem.Read
			if rng.Intn(4) == 0 {
				kind = mem.Write
			}
			st = append(st, mem.Ref{Addr: addr, Gap: uint16(rng.Intn(4)), Kind: kind})
		}
		p.Phases[0].Streams = append(p.Phases[0].Streams, st)
	}
	return p
}

// TestPredictDirectMappedCloseToNaive: on a single-processor stream the
// merged-stream interleaving is exact, so the only model error is the
// statistical conflict term — the prediction must land within a few
// percent of a real direct-mapped cache simulation.
func TestPredictDirectMappedCloseToNaive(t *testing.T) {
	prog := syntheticProgram(t, 1, 60_000, 4096)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 1, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []int{256, 1024, 4096} {
		pred, err := prof.Predict(lines*sysmodel.LineSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		reads, misses := naiveDirectMapped(prog.Phases[0].Streams[0], lines)
		got := pred.ReadMissRate
		want := float64(misses) / float64(reads)
		if pred.Reads != float64(reads) {
			t.Errorf("lines=%d: predicted %v reads, naive saw %d", lines, pred.Reads, reads)
		}
		if diff := math.Abs(got - want); diff > 0.03 {
			t.Errorf("lines=%d: predicted read miss rate %.4f, naive %.4f (|diff| %.4f > 0.03)",
				lines, got, want, diff)
		}
	}
}

// naiveLRU counts misses of a fully-associative LRU cache — the exact
// ground truth for the assoc>1 threshold model on a single stream.
func naiveLRU(refs []mem.Ref, lines int) (accesses, misses uint64) {
	s := &refStack{}
	for _, r := range refs {
		rd, wr := accessesOf(r.Kind)
		line := sysmodel.LineIndex(r.Addr)
		for i := 0; i < rd+wr; i++ {
			accesses++
			if d := s.access(line); d == distCold || d >= lines {
				misses++
			}
			if len(s.stack) > lines {
				s.stack = s.stack[:lines]
			}
		}
	}
	return accesses, misses
}

// TestPredictLRUThresholdExact: in the fully-associative limit (assoc
// == lines, one set) the binomial set-associative model collapses to
// the LRU threshold, which on a single stream must reproduce a real
// LRU simulation exactly (for sizes within the cap).
func TestPredictLRUThresholdExact(t *testing.T) {
	prog := syntheticProgram(t, 1, 20_000, 2048)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 1, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []int{64, 512, 2048} {
		pred, err := prof.Predict(lines*sysmodel.LineSize, lines)
		if err != nil {
			t.Fatal(err)
		}
		_, misses := naiveLRU(prog.Phases[0].Streams[0], lines)
		got := pred.Cluster[0].ReadMisses + pred.Cluster[0].WriteMisses
		if math.Abs(got-float64(misses)) > 1e-6 {
			t.Errorf("lines=%d: fully-associative model predicts %.4f misses, LRU simulation has %d",
				lines, got, misses)
		}
	}
}

// TestPredictAssocMonotone: for a fixed size, predicted misses must be
// non-increasing in associativity — a 2-way cache never predicts more
// misses than direct-mapped, and the fully-associative limit never
// predicts more than any intermediate way count. (LRU stack distances
// obey inclusion, and the binomial tail P(X >= A) shrinks with A.)
func TestPredictAssocMonotone(t *testing.T) {
	prog := syntheticProgram(t, 1, 20_000, 2048)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 1, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	const lines = 512
	prev := math.Inf(1)
	for _, assoc := range []int{1, 2, 4, 8, lines} {
		pred, err := prof.Predict(lines*sysmodel.LineSize, assoc)
		if err != nil {
			t.Fatal(err)
		}
		got := pred.Cluster[0].ReadMisses + pred.Cluster[0].WriteMisses
		if got > prev+1e-9 {
			t.Errorf("assoc=%d predicts %.2f misses, more than the next-lower associativity's %.2f",
				assoc, got, prev)
		}
		prev = got
	}
}

// TestPredictRejectsBadAssoc: associativities below 1 or beyond the
// line count are configuration errors, not silent clamps.
func TestPredictRejectsBadAssoc(t *testing.T) {
	prog := syntheticProgram(t, 1, 1_000, 64)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 1, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Predict(64*sysmodel.LineSize, 0); err == nil {
		t.Error("assoc 0 accepted")
	}
	if _, err := prof.Predict(64*sysmodel.LineSize, 128); err == nil {
		t.Error("assoc beyond the line count accepted")
	}
}

// TestBuildProfileShape: totals, read counts and cold counts must be
// self-consistent with the trace.
func TestBuildProfileShape(t *testing.T) {
	prog := syntheticProgram(t, 4, 5_000, 1024)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 2, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Refs != comp.Refs() {
		t.Errorf("profile Refs %d != trace refs %d", prof.Refs, comp.Refs())
	}
	if len(prof.Cluster) != 2 || len(prof.Issue) != 1 || len(prof.Issue[0]) != 4 || len(prof.ReadRefs[0]) != 4 {
		t.Fatalf("profile shape: %d clusters, issue %d×%d", len(prof.Cluster), len(prof.Issue), len(prof.Issue[0]))
	}
	// Each cluster sees every access of its processors' streams, and
	// its cold count is their distinct footprint.
	for cl := 0; cl < 2; cl++ {
		var accesses, reads, readRefs uint64
		lines := map[uint32]bool{}
		for pr := cl * 2; pr < cl*2+2; pr++ {
			for _, r := range comp.Streams[0][pr] {
				rd, wr := accessesOf(r.Kind)
				accesses += uint64(rd + wr)
				reads += uint64(rd)
				if rd+wr > 0 {
					lines[sysmodel.LineIndex(r.Addr)] = true
				}
			}
			readRefs += prof.ReadRefs[0][pr]
		}
		h := &prof.Cluster[cl]
		if got := h.Reads() + h.Writes(); got != accesses {
			t.Errorf("cluster %d: %d accesses, want %d", cl, got, accesses)
		}
		if h.Reads() != reads || readRefs != reads {
			t.Errorf("cluster %d: %d reads in the histogram, %d in ReadRefs, want %d", cl, h.Reads(), readRefs, reads)
		}
		if cold := h.ColdReads + h.ColdWrites; cold != uint64(len(lines)) {
			t.Errorf("cluster %d: %d cold accesses, want the %d distinct lines", cl, cold, len(lines))
		}
	}
	// BuildProfile must reject a non-divisible shape.
	if _, err := BuildProfile(comp, 3, DefaultCap()); err == nil {
		t.Error("BuildProfile accepted 4 procs / 3 clusters")
	}
}

// TestBuildScheduledProfile: the scheduled merge must conserve
// accesses, finish every process, and be deterministic.
func TestBuildScheduledProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var processes [][]mem.Ref
	var wantRefs uint64
	for pid := 0; pid < 5; pid++ {
		n := 2_000 + rng.Intn(1_000)
		st := make([]mem.Ref, 0, n)
		for i := 0; i < n; i++ {
			// Disjoint address spaces, like the real generator.
			addr := uint32((pid*4096 + rng.Intn(512) + 1) * sysmodel.LineSize)
			st = append(st, mem.Ref{Addr: addr, Gap: uint16(rng.Intn(3)), Kind: mem.Read})
		}
		processes = append(processes, st)
		wantRefs += uint64(n)
	}
	prof, err := BuildScheduledProfile("mp", processes, 2, 1_000, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Refs != wantRefs {
		t.Errorf("scheduled profile saw %d refs, want %d", prof.Refs, wantRefs)
	}
	if got := prof.Cluster[0].Reads() + prof.Cluster[0].Writes(); got != wantRefs {
		t.Errorf("shared histogram holds %d accesses, want %d", got, wantRefs)
	}
	// The shared cache's cold count is the processes' distinct
	// footprint, and every read is issued by some slot.
	lines := map[uint32]bool{}
	for _, st := range processes {
		for _, r := range st {
			lines[sysmodel.LineIndex(r.Addr)] = true
		}
	}
	if cold := prof.Cluster[0].ColdReads; cold != uint64(len(lines)) {
		t.Errorf("shared cold %d != distinct footprint %d", cold, len(lines))
	}
	if got := prof.ReadRefs[0][0] + prof.ReadRefs[0][1]; got != wantRefs {
		t.Errorf("slots issued %d reads, want %d", got, wantRefs)
	}
	prof2, err := BuildScheduledProfile("mp", processes, 2, 1_000, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	if prof2.Cluster[0].FarReads != prof.Cluster[0].FarReads ||
		prof2.Issue[0][0] != prof.Issue[0][0] || prof2.Issue[0][1] != prof.Issue[0][1] {
		t.Error("scheduled profile is not deterministic")
	}
	if _, err := BuildScheduledProfile("mp", processes, 0, 1_000, 8); err == nil {
		t.Error("BuildScheduledProfile accepted zero slots")
	}
}

// TestBuildersRefuseTooManyProcs: the merge scheduler packs a processor
// or slot id into 8 bits of its keys, so a build that would merge more
// than sysmodel.MaxProcs streams is an error, while one at the limit
// builds.
func TestBuildersRefuseTooManyProcs(t *testing.T) {
	st := []mem.Ref{{Addr: sysmodel.LineSize, Kind: mem.Read}}
	for _, tc := range []struct {
		clusters, ppc int
		ok            bool
	}{{1, sysmodel.MaxProcs, true}, {1, sysmodel.MaxProcs + 1, false}, {2, sysmodel.MaxProcs + 1, false}} {
		procs := tc.clusters * tc.ppc
		phase := trace.Phase{Name: "main", Streams: make([][]mem.Ref, procs)}
		for pr := range phase.Streams {
			phase.Streams[pr] = st
		}
		comp, err := trace.Compile(&trace.Program{Name: "wide", Procs: procs, Phases: []trace.Phase{phase}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildProfile(comp, tc.clusters, 8); (err == nil) != tc.ok {
			t.Errorf("BuildProfile, %d clusters of %d processors: err = %v, want ok=%v", tc.clusters, tc.ppc, err, tc.ok)
		}
	}
	processes := [][]mem.Ref{st, st}
	for _, tc := range []struct {
		slots int
		ok    bool
	}{{sysmodel.MaxProcs, true}, {sysmodel.MaxProcs + 1, false}} {
		if _, err := BuildScheduledProfile("wide", processes, tc.slots, 100, 8); (err == nil) != tc.ok {
			t.Errorf("BuildScheduledProfile, %d slots: err = %v, want ok=%v", tc.slots, err, tc.ok)
		}
	}
}

// TestPredictMonotonicInSize: bigger caches cannot predict more misses.
func TestPredictMonotonicInSize(t *testing.T) {
	prog := syntheticProgram(t, 2, 10_000, 2048)
	comp, err := trace.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfile(comp, 1, DefaultCap())
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	prevCycles := uint64(math.MaxUint64)
	for _, size := range sysmodel.SCCSizes {
		pred, err := prof.Predict(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pred.ReadMissRate > prev+1e-12 {
			t.Errorf("miss rate rose from %.5f to %.5f at %d bytes", prev, pred.ReadMissRate, size)
		}
		if pred.EstCycles > prevCycles {
			t.Errorf("estimated cycles rose from %d to %d at %d bytes", prevCycles, pred.EstCycles, size)
		}
		prev, prevCycles = pred.ReadMissRate, pred.EstCycles
	}
	if _, err := prof.Predict(1, 1); err == nil {
		t.Error("Predict accepted a sub-line cache size")
	}
}

// naiveBuildProfile is the reference for BuildProfile: one global
// min-clock scan over every processor (ties to the lowest id) feeding
// one capped naive stack per cluster, counting each processor's issue
// cycles and reads as it goes.
func naiveBuildProfile(c *trace.Compiled, clusters, capLines int) *Profile {
	ppc := c.Procs / clusters
	p := &Profile{
		Name: c.Name, Procs: c.Procs, Clusters: clusters, Cap: capLines,
		Refs:       c.Refs(),
		Cluster:    make([]Hist, clusters),
		PhaseNames: append([]string(nil), c.PhaseNames...),
		Issue:      make([][]uint64, len(c.Streams)),
		ReadRefs:   make([][]uint64, len(c.Streams)),
	}
	clStack := make([]*cappedStack, clusters)
	for i := range clStack {
		clStack[i] = newCappedStack(capLines)
		p.Cluster[i] = newHist(capLines)
	}
	for phase, streams := range c.Streams {
		p.Issue[phase] = make([]uint64, c.Procs)
		p.ReadRefs[phase] = make([]uint64, c.Procs)
		pos := make([]int, c.Procs)
		clk := make([]uint64, c.Procs)
		for {
			pr := -1
			for q := 0; q < c.Procs; q++ {
				if pos[q] < len(streams[q]) && (pr < 0 || clk[q] < clk[pr]) {
					pr = q
				}
			}
			if pr < 0 {
				break
			}
			r := streams[pr][pos[pr]]
			pos[pr]++
			clk[pr] += uint64(r.Gap)
			reads, writes := accessesOf(r.Kind)
			if reads+writes == 0 {
				continue
			}
			line := sysmodel.LineIndex(r.Addr)
			cl := pr / ppc
			for i := 0; i < reads+writes; i++ {
				p.Cluster[cl].add(clStack[cl].access(line), i >= reads)
			}
			clk[pr] += uint64(reads + writes)
			p.ReadRefs[phase][pr] += uint64(reads)
		}
		copy(p.Issue[phase], clk)
	}
	p.finish()
	return p
}

// naiveBuildScheduledProfile is the reference for BuildScheduledProfile:
// the documented round-robin scheduler — initial assignment in process
// order, a global FIFO ready queue, preemption once a slot's clock
// reaches its quantum end, idle slots (lowest clock first) picking up
// preempted processes at once — as a plain min-clock scan over the busy
// slots (ties to the lowest id) that issues one reference per step into
// a capped naive stack.
func naiveBuildScheduledProfile(name string, processes [][]mem.Ref, slots int, quantum uint64, capLines int) *Profile {
	p := &Profile{
		Name: name, Procs: slots, Clusters: 1, Cap: capLines,
		Cluster:    []Hist{newHist(capLines)},
		PhaseNames: []string{"scheduled"},
		Issue:      [][]uint64{make([]uint64, slots)},
		ReadRefs:   [][]uint64{make([]uint64, slots)},
	}
	stack := newCappedStack(capLines)
	clk := p.Issue[0]
	pos := make([]int, len(processes))
	var queue []int
	// current[s] is slot s's process, or -1 while s is idle.
	current := make([]int, slots)
	quantumEnd := make([]uint64, slots)
	for s := range current {
		current[s] = -1
		if s < len(processes) {
			current[s], quantumEnd[s] = s, quantum
		}
	}
	for pid := slots; pid < len(processes); pid++ {
		queue = append(queue, pid)
	}
	// idleSlot is the idle slot with the smallest clock, or -1.
	idleSlot := func() int {
		v := -1
		for s := range current {
			if current[s] < 0 && (v < 0 || clk[s] < clk[v]) {
				v = s
			}
		}
		return v
	}
	for {
		s := -1
		for q := range current {
			if current[q] >= 0 && (s < 0 || clk[q] < clk[s]) {
				s = q
			}
		}
		if s < 0 {
			break
		}
		pid := current[s]
		st := processes[pid]
		switch {
		case pos[pid] == len(st):
			// Finished: take the head of the queue or go idle.
			current[s] = -1
			if len(queue) > 0 {
				current[s], queue = queue[0], queue[1:]
				quantumEnd[s] = clk[s] + quantum
			}
			continue
		case clk[s] >= quantumEnd[s] && (len(queue) > 0 || idleSlot() >= 0):
			// Preempted: requeue, take the head, and hand the rest of
			// the queue to idle slots.
			queue = append(queue, pid)
			current[s], queue = queue[0], queue[1:]
			quantumEnd[s] = clk[s] + quantum
			for v := idleSlot(); v >= 0 && len(queue) > 0; v = idleSlot() {
				clk[v] = max(clk[v], clk[s])
				current[v], queue = queue[0], queue[1:]
				quantumEnd[v] = clk[v] + quantum
			}
			continue
		case clk[s] >= quantumEnd[s]:
			// Nobody is waiting: a fresh quantum.
			quantumEnd[s] = clk[s] + quantum
		}
		r := st[pos[pid]]
		pos[pid]++
		clk[s] += uint64(r.Gap)
		reads, writes := accessesOf(r.Kind)
		if reads+writes == 0 {
			continue
		}
		p.Refs++
		line := sysmodel.LineIndex(r.Addr)
		for i := 0; i < reads+writes; i++ {
			p.Cluster[0].add(stack.access(line), i >= reads)
		}
		clk[s] += uint64(reads + writes)
		p.ReadRefs[0][s] += uint64(reads)
	}
	p.finish()
	return p
}

// mixedStream is a deterministic stream over lines [base, base+universe)
// that mixes reads, writes, critical sections (Lock, accesses, Unlock)
// and Idle stretches, with compute gaps in [0, maxGap]. Half the
// accesses go to a hot eighth of the universe, so distances run from
// zero to far.
func mixedStream(rng *rand.Rand, n, maxGap int, base uint32, universe int) []mem.Ref {
	line := func() uint32 {
		if rng.Intn(2) == 0 {
			return base + uint32(rng.Intn(universe/8+1))
		}
		return base + uint32(rng.Intn(universe))
	}
	gap := func() uint16 { return uint16(rng.Intn(maxGap + 1)) }
	var st []mem.Ref
	for len(st) < n {
		switch k := rng.Intn(20); {
		case k == 0:
			lock := line() * sysmodel.LineSize
			st = append(st, mem.Ref{Addr: lock, Gap: gap(), Kind: mem.Lock},
				mem.Ref{Addr: line() * sysmodel.LineSize, Gap: gap(), Kind: mem.Write},
				mem.Ref{Addr: lock, Gap: gap(), Kind: mem.Unlock})
		case k == 1:
			st = append(st, mem.Ref{Gap: gap(), Kind: mem.Idle})
		case k < 6:
			st = append(st, mem.Ref{Addr: line() * sysmodel.LineSize, Gap: gap(), Kind: mem.Write})
		default:
			st = append(st, mem.Ref{Addr: line() * sysmodel.LineSize, Gap: gap(), Kind: mem.Read})
		}
	}
	return st
}

// mixedProgram is a deterministic multi-phase program of mixedStreams;
// every fifth stream is empty, and the first processor's first-phase
// stream always is.
func mixedProgram(seed int64, procs, phases, refs, maxGap int, base uint32, universe int) *trace.Program {
	rng := rand.New(rand.NewSource(seed))
	p := &trace.Program{Name: "mixed", Procs: procs}
	for ph := 0; ph < phases; ph++ {
		phase := trace.Phase{Name: fmt.Sprintf("phase%d", ph)}
		for pr := 0; pr < procs; pr++ {
			var st []mem.Ref
			if (ph+pr) > 0 && rng.Intn(5) > 0 {
				st = mixedStream(rng, refs/2+rng.Intn(refs), maxGap, base, universe)
			}
			phase.Streams = append(phase.Streams, st)
		}
		p.Phases = append(p.Phases, phase)
	}
	return p
}

// TestBuildProfileMatchesNaive: the per-cluster merges must produce
// exactly the profile — histograms, issue cycles and reads — of the global
// min-clock scan over naive stacks — with clocks that tie at every
// step (maxGap 0), Idle refs, critical sections, empty streams,
// several phases, 1, 2 and 4 clusters, caps small enough to compact
// many times, and line indices past maxDirectLines.
func TestBuildProfileMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		maxGap   int
		base     uint32
		universe int
	}{
		{"tied-clocks", 0, 1, 300},
		{"gaps", 5, 1, 300},
		{"wide-gaps", 40, 1, 300},
		{"renamed-lines", 3, maxDirectLines + 12345, 300},
	}
	for _, tc := range cases {
		for _, clusters := range []int{1, 2, 4} {
			for _, capLines := range []int{8, 64, 700} {
				prog := mixedProgram(int64(clusters*1000+capLines), 8, 3, 600, tc.maxGap, tc.base, tc.universe)
				comp, err := trace.Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildProfile(comp, clusters, capLines)
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveBuildProfile(comp, clusters, capLines); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d clusters, cap %d: profile differs from the naive global merge", tc.name, clusters, capLines)
				}
			}
		}
	}
}

// TestBuildScheduledProfileMatchesNaive: the run-ahead scheduled merge
// must produce exactly the profile of the naive one-reference-per-step
// scheduler — with one slot, fewer slots than processes (time slicing)
// and more (idle slots), an empty process stream, quanta from one cycle
// (a preemption check before every reference) to longer than most
// streams, clocks that tie at every step, and caps small enough to
// compact many times.
func TestBuildScheduledProfileMatchesNaive(t *testing.T) {
	for _, nproc := range []int{1, 5, 9} {
		for _, maxGap := range []int{0, 5} {
			rng := rand.New(rand.NewSource(int64(10*nproc + maxGap)))
			var processes [][]mem.Ref
			for pid := 0; pid < nproc; pid++ {
				var st []mem.Ref
				if pid != 2 {
					// Overlapping footprints, so processes also reuse
					// each other's lines.
					st = mixedStream(rng, 150+rng.Intn(300), maxGap, 1+uint32(pid)*100, 150)
				}
				processes = append(processes, st)
			}
			for _, slots := range []int{1, 2, 3, 8} {
				for _, quantum := range []uint64{1, 7, 500} {
					for _, capLines := range []int{8, 64} {
						got, err := BuildScheduledProfile("mp", processes, slots, quantum, capLines)
						if err != nil {
							t.Fatal(err)
						}
						want := naiveBuildScheduledProfile("mp", processes, slots, quantum, capLines)
						if want.Refs == 0 || !reflect.DeepEqual(got, want) {
							t.Errorf("%d processes, gaps ≤%d, %d slots, quantum %d, cap %d: profile differs from the naive scheduler",
								nproc, maxGap, slots, quantum, capLines)
						}
					}
				}
			}
		}
	}
}

// TestScheduledProfileRenamingIsExact: the scheduled builder renames
// lines past maxDirectLines to dense ids, a bijection on lines, so a
// profile over streams shifted there is identical to the profile over
// the same streams at base 1 — whether there are fewer slots than
// processes (time slicing) or more (idle slots).
func TestScheduledProfileRenamingIsExact(t *testing.T) {
	streamsAt := func(base uint32) [][]mem.Ref {
		rng := rand.New(rand.NewSource(5))
		var processes [][]mem.Ref
		for pid := 0; pid < 5; pid++ {
			var st []mem.Ref
			if pid != 3 {
				st = mixedStream(rng, 1_500+rng.Intn(1_000), 3, base+uint32(pid)*200, 150)
			}
			processes = append(processes, st)
		}
		return processes
	}
	low, high := streamsAt(1), streamsAt(maxDirectLines+777)
	for _, slots := range []int{2, 8} {
		for _, capLines := range []int{8, 64} {
			want, err := BuildScheduledProfile("mp", low, slots, 500, capLines)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildScheduledProfile("mp", high, slots, 500, capLines)
			if err != nil {
				t.Fatal(err)
			}
			if want.Cluster[0].Reads() == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%d slots, cap %d: profile over renamed lines differs from the profile at base 1", slots, capLines)
			}
		}
	}
}
