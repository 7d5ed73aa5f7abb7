package sim

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/scc"
	"sccsim/internal/sched"
	"sccsim/internal/sysmodel"
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
// global FIFO ready queue and takes the head. A processor goes idle only
// when a process finishes with the queue empty, and a preemption leaves
// the queue as long as it was, so no process ever waits while a
// processor is idle: an idle processor stays idle, and a quantum that
// expires with nobody waiting just restarts.
func RunMultiprog(cfg sysmodel.Config, opts Options, processes []Process, quantum uint64) (*Result, error) {
	if len(processes) == 0 {
		return nil, fmt.Errorf("sim: no processes to schedule")
	}
	if quantum == 0 {
		return nil, fmt.Errorf("sim: zero scheduler quantum")
	}
	s, err := newSystem(cfg, opts)
	if err != nil {
		return nil, err
	}
	return s.runMultiprog(processes, quantum)
}

// runMultiprog is RunMultiprog on the freshly built system s.
func (s *system) runMultiprog(processes []Process, quantum uint64) (*Result, error) {
	nproc := s.cfg.Procs()
	// Size the flat presence table from the workload's footprint (and
	// count the non-idle references the verifier expects); one linear
	// pass over the streams is negligible against the run.
	var expRefs uint64
	var maxLine uint32
	shift := s.lineShift
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
	// Per-processor state. current[p] is p's process id, or -1 when
	// idle; it is the system's lock-owner table, so a lock taken on p
	// belongs to the process p runs.
	current := s.owner
	quantumEnd := make([]uint64, nproc)
	clock := make([]uint64, nproc)
	idle := make([]bool, nproc)
	idleSince := make([]uint64, nproc)

	// Initial assignment: processes 0..nproc-1 to processors, rest queued.
	for p := 0; p < nproc; p++ {
		if p < len(processes) {
			current[p] = p
			quantumEnd[p] = quantum
			if s.ck != nil {
				s.ck.OnDispatch(0, p, p)
			}
		} else {
			current[p] = -1
			idle[p] = true
		}
	}
	for i := nproc; i < len(processes); i++ {
		queue = append(queue, i)
	}

	// The scheduler is keyed on each processor's clock, before the gap of
	// its next reference: the winner issues a stretch of references
	// (below), then its leaf is set to its new clock, or emptied when it
	// goes idle. Only the winner's clock ever changes, and it is re-keyed
	// as it does.
	tree := sched.NewTourney(nproc)
	res, tr, warmupAt, dm := s.res, s.tr, s.opts.WarmupRefs, s.directMapped()
	for p := 0; p < nproc; p++ {
		if current[p] >= 0 {
			tree.Set(p, sched.Key(p, clock[p]))
		}
	}

	for {
		k := tree.Winner()
		if k == sched.NoKey {
			break
		}
		p := sched.KeyProc(k)
		pid := current[p]
		st := processes[pid].Refs

		if pos[pid] >= len(st) {
			// Process finished: take the next one or go idle.
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				current[p] = next
				if s.ck != nil {
					s.ck.OnDispatch(clock[p], p, next)
				}
				s.res.Switches++
				s.emitSwitch(p, clock[p])
				clock[p] += s.opts.SwitchPenalty
				quantumEnd[p] = clock[p] + quantum
				tree.Set(p, sched.Key(p, clock[p]))
			} else {
				current[p] = -1
				idle[p] = true
				idleSince[p] = clock[p]
				tree.Set(p, sched.NoKey)
			}
			continue
		}

		if clock[p] >= quantumEnd[p] && len(queue) > 0 {
			// Quantum expired and a process is waiting for the processor.
			queue = append(queue, pid)
			current[p] = queue[0]
			queue = queue[1:]
			if s.ck != nil {
				s.ck.OnDispatch(clock[p], p, current[p])
			}
			s.res.Switches++
			s.emitSwitch(p, clock[p])
			clock[p] += s.opts.SwitchPenalty
			quantumEnd[p] = clock[p] + quantum
			tree.Set(p, sched.Key(p, clock[p]))
			continue
		}
		if clock[p] >= quantumEnd[p] {
			// Nobody is waiting: keep running, restart the quantum.
			quantumEnd[p] = clock[p] + quantum
		}

		// Run ahead: the winner keeps issuing while its key stays below
		// bound, every other processor's key, its clock below the quantum
		// end and its stream unfinished; a spin iteration also ends the
		// stretch. The checks above then run exactly where a scheduler
		// consulted per reference would run them, and the tree is touched
		// once per stretch. Only the winner's state changes inside it.
		bound := tree.RunnerUp(p)
		i, t, qEnd := pos[pid], clock[p], quantumEnd[p]
		var c int
		var sc *scc.SCC
		var tags *cache.Cache
		if dm {
			c = s.clusterOf(p)
			sc, tags = s.sccs[c], s.tags[c]
		}
		for {
			r := st[i]
			t += uint64(r.Gap)
			if r.Kind != mem.Idle {
				if tags != nil && r.Kind <= mem.Write {
					// The paper's SCC access, in line: the steps of replay's
					// in-loop access (see there).
					if s.ck != nil {
						s.ck.OnAccess(c)
					}
					start := sc.BankStart(t, r.Addr)
					if start != t {
						s.bankStallAt(p, t, start-t, r.Addr)
					}
					if tags.HitDM(r.Addr, r.Kind) {
						if r.Kind == mem.Write && s.bus.MaybeShared(r.Addr, c) {
							s.bus.WriteShared(start, c, r.Addr)
						}
						if tr != nil {
							s.emitHit(p, start, r.Addr, r.Kind)
						}
						t = start
					} else {
						t = s.missDM(p, c, start, r.Addr, r.Kind)
					}
				} else {
					var retry bool
					if t, retry = s.access(p, t, r); retry {
						// Spin iteration on a held lock: re-issue the same
						// reference, gap included, once p wins again.
						break
					}
				}
				res.Refs++
				if res.Refs == warmupAt {
					s.warmupReset()
				}
			}
			if i++; i == len(st) || t >= qEnd || sched.Key(p, t) >= bound {
				break
			}
		}
		pos[pid], clock[p] = i, t
		tree.Set(p, sched.Key(p, t))
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
	return s.finish(clock, expRefs)
}

// emitSwitch traces a context switch on processor p at time t.
func (s *system) emitSwitch(p int, t uint64) {
	if s.tr != nil {
		s.tr.Emit(obs.Event{TS: t, Dur: s.opts.SwitchPenalty, Track: int32(p),
			Kind: uint8(EvSwitch)})
	}
}
