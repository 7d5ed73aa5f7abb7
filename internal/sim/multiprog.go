package sim

import (
	"fmt"

	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// Process is one independent sequential program in a multiprogramming
// workload: a name and its complete reference stream. Processes never
// share data; their address spaces are laid out disjointly by the
// workload generator.
type Process struct {
	Name string
	Refs []mem.Ref
}

// RunMultiprog simulates a multiprogramming workload (Section 2.3 of the
// paper): the processes are scheduled onto the system's processors with a
// round-robin scheduler and the given time quantum in cycles (the paper
// uses 5 million). The run ends when every process has executed its whole
// stream; Result.Cycles is the makespan.
//
// A processor whose quantum expires puts its process at the tail of a
// global FIFO ready queue and takes the head; idle processors (out of
// work because fewer processes remain than processors) pick up preempted
// processes immediately.
func RunMultiprog(cfg sysmodel.Config, opts Options, processes []Process, quantum uint64) (*Result, error) {
	if len(processes) == 0 {
		return nil, fmt.Errorf("sim: no processes to schedule")
	}
	if quantum == 0 {
		return nil, fmt.Errorf("sim: zero scheduler quantum")
	}
	if h := cfg.HierarchyKind(); h != sysmodel.HierarchyShared {
		return nil, fmt.Errorf("sim: hierarchy %q is not supported for multiprogramming workloads; use the default shared hierarchy", h)
	}
	nproc := cfg.Procs()
	s, err := newSystem(cfg, opts, nproc)
	if err != nil {
		return nil, err
	}
	// Size the flat presence table from the workload's footprint (and
	// count the non-idle references the verifier expects); one linear
	// pass over the streams is negligible against the run.
	var expRefs uint64
	var maxLine uint32
	shift := cfg.LineShift()
	for i := range processes {
		for _, r := range processes[i].Refs {
			if r.Kind == mem.Idle {
				continue
			}
			expRefs++
			if li := r.Addr >> shift; li > maxLine {
				maxLine = li
			}
		}
	}
	s.bus.ReserveLines(maxLine + 1)

	// Per-process progress.
	pos := make([]int, len(processes))
	// Ready queue of process ids.
	queue := make([]int, 0, len(processes))
	// Per-processor state.
	current := make([]int, nproc) // process id, or -1
	quantumEnd := make([]uint64, nproc)
	clock := make([]uint64, nproc)
	idle := make([]bool, nproc)
	idleSince := make([]uint64, nproc)

	// Initial assignment: processes 0..nproc-1 to processors, rest queued.
	for p := 0; p < nproc; p++ {
		if p < len(processes) {
			current[p] = p
			quantumEnd[p] = quantum
		} else {
			current[p] = -1
			idle[p] = true
		}
	}
	for i := nproc; i < len(processes); i++ {
		queue = append(queue, i)
	}

	// The scheduler is keyed on each processor's clock: the winner runs
	// one reference, then its leaf is set to its new clock, or emptied
	// when it goes idle. Only the winner's clock and processors woken
	// from idle ever change, and each is re-keyed as it does.
	sched := newTourney(nproc)
	for p := 0; p < nproc; p++ {
		if current[p] >= 0 {
			sched.set(p, schedKey(p, clock[p]))
		}
	}

	// wake hands queued processes to idle processors, at or after time t.
	wake := func(t uint64) {
		for len(queue) > 0 {
			victim := -1
			for p := 0; p < nproc; p++ {
				if idle[p] && (victim < 0 || clock[p] < clock[victim]) {
					victim = p
				}
			}
			if victim < 0 {
				return
			}
			pid := queue[0]
			queue = queue[1:]
			idle[victim] = false
			if clock[victim] < t {
				s.res.BarrierWait[victim] += t - clock[victim]
				clock[victim] = t
			}
			s.res.BarrierWait[victim] += clock[victim] - idleSince[victim]
			current[victim] = pid
			s.res.Switches++
			s.emitSwitch(victim, clock[victim])
			clock[victim] += s.opts.SwitchPenalty
			quantumEnd[victim] = clock[victim] + quantum
			sched.set(victim, schedKey(victim, clock[victim]))
		}
	}

	for {
		k := sched.winner()
		if k == noKey {
			break
		}
		p := keyProc(k)
		pid := current[p]
		st := processes[pid].Refs

		if pos[pid] >= len(st) {
			// Process finished: take the next one or go idle.
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				current[p] = next
				s.res.Switches++
				s.emitSwitch(p, clock[p])
				clock[p] += s.opts.SwitchPenalty
				quantumEnd[p] = clock[p] + quantum
				sched.set(p, schedKey(p, clock[p]))
			} else {
				current[p] = -1
				idle[p] = true
				idleSince[p] = clock[p]
				sched.set(p, noKey)
			}
			continue
		}

		if clock[p] >= quantumEnd[p] && (len(queue) > 0 || anyIdle(idle)) {
			// Quantum expired and someone can use the processor (or an
			// idle processor can take over the preempted process).
			queue = append(queue, pid)
			next := queue[0]
			queue = queue[1:]
			current[p] = next
			if next != pid {
				s.res.Switches++
				s.emitSwitch(p, clock[p])
				clock[p] += s.opts.SwitchPenalty
			}
			quantumEnd[p] = clock[p] + quantum
			wake(clock[p])
			sched.set(p, schedKey(p, clock[p]))
			continue
		}
		if clock[p] >= quantumEnd[p] {
			// Nobody is waiting: keep running, restart the quantum.
			quantumEnd[p] = clock[p] + quantum
		}

		r := st[pos[pid]]
		t := clock[p] + uint64(r.Gap)
		if r.Kind != mem.Idle {
			var retry bool
			t, retry = s.access(p, t, r)
			if retry {
				// Spin iteration on a held lock: re-issue later.
				clock[p] = t
				sched.set(p, schedKey(p, t))
				continue
			}
			s.res.Refs++
		}
		pos[pid]++
		clock[p] = t
		sched.set(p, schedKey(p, t))
	}

	// Close out idle accounting to the makespan.
	var maxT uint64
	for _, t := range clock {
		if t > maxT {
			maxT = t
		}
	}
	for p := 0; p < nproc; p++ {
		if idle[p] {
			s.res.BarrierWait[p] += maxT - idleSince[p]
		}
	}
	s.finish(clock)
	s.flushMetrics()
	if s.ck != nil {
		if err := s.verifyFinish(expRefs); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// emitSwitch traces a context switch on processor p at time t.
func (s *system) emitSwitch(p int, t uint64) {
	if s.tr != nil {
		s.tr.Emit(obs.Event{TS: t, Dur: s.opts.SwitchPenalty, Track: int32(p),
			Kind: uint8(EvSwitch)})
	}
}

func anyIdle(idle []bool) bool {
	for _, b := range idle {
		if b {
			return true
		}
	}
	return false
}

// ProcessesFromProgram flattens a single-processor trace.Program into a
// Process stream — a convenience for building multiprogramming workloads
// out of the same generators the parallel runs use.
func ProcessesFromProgram(p *trace.Program) (Process, error) {
	if p.Procs != 1 {
		return Process{}, fmt.Errorf("sim: program %q has %d processors, want 1", p.Name, p.Procs)
	}
	var refs []mem.Ref
	for _, ph := range p.Phases {
		refs = append(refs, ph.Streams[0]...)
	}
	return Process{Name: p.Name, Refs: refs}, nil
}
