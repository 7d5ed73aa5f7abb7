// The exact-cycles table: what a process keeps of an exact simulation
// once the call that ran it returns. Searches over one space confirm
// many of the same candidates, and the cost/performance entries' four
// points sit on the grid the sweeps already ran, so callers that read
// only a point's cycles ask ExactCycles, which answers from the table
// what an earlier exact run recorded and simulates the rest. Every
// exact RunConfigs records its points; only ExactCycles reads. Sweeps,
// Do and the service's point and sweep requests return whole
// sim.Results, which the table does not keep, so they always simulate.

package explorer

import (
	"context"
	"fmt"

	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
)

// cyclesKey names one exact result: the trace the point replays (its
// store key, which names the workload, scale and seed), the machine,
// and the simulator options that change a result.
type cyclesKey struct {
	trace string
	cfg   sysmodel.Config
	opts  sim.Options
}

// newCyclesKey keys workload w's exact run at cfg under opts. It zeroes
// the options' Tracer, Metrics and Verify: they observe or check a run
// and never change its result, so a traced, measured or verified run
// shares its record with a plain one. Every other field is part of the
// key (TestCyclesKeyCoversOptions).
func newCyclesKey(w Workload, cfg sysmodel.Config, s Scale, opts sim.Options) cyclesKey {
	opts.Tracer, opts.Metrics, opts.Verify = nil, nil, nil
	key, _ := traceKey(w, cfg.Procs(), s)
	return cyclesKey{key, cfg, opts}
}

// cyclesEntryBytes is what the table charges one recorded point: its
// key, value, list links and map slot come to under 600 bytes
// (TestCyclesChargeCoversHeap).
const cyclesEntryBytes = 1 << 10

// cyclesBudget bounds the table at 8192 points, far above what the
// benchmark and the experiments record: bench's search workload
// confirms 37 distinct points per pass, and `sccexplore -exp all`
// records the 128 points of its four grids.
const cyclesBudget = 8 << 20

// cycles holds the cycles of every point an exact RunConfigs returned,
// evicting the least recently used past cyclesBudget. Its entries never
// fail, and each is charged cyclesEntryBytes.
var cycles = memo[cyclesKey, uint64]{budget: cyclesBudget, minCharge: cyclesEntryBytes}

// recordCycles adds the points an exact RunConfigs returns, in cfgs
// order, to the table. A point already recorded keeps its record: the
// simulator is deterministic, so the cycles are the same.
func recordCycles(w Workload, cfgs []sysmodel.Config, s Scale, opts sim.Options, points []*Point, tc *traceCounters) {
	evicted := 0
	for i, pt := range points {
		c := pt.Result.Cycles
		_, n, _ := cycles.get(newCyclesKey(w, cfgs[i], s, opts), func() (uint64, error) { return c, nil })
		evicted += n
	}
	tc.noteCache("cycles", cycles.heldBytes(), evicted)
}

// ExactCycles returns the exact simulator's cycles for workload w at
// every configuration, in input order: the Result.Cycles an exact
// RunConfigs would return. A configuration an earlier exact RunConfigs
// in this process returned is answered from its record (counted in
// explorer.cycles_cache_hits); the rest run as one RunConfigs batch, so
// the worker pool, eng.Remote, the trace store and the Progress hook
// see exactly the points simulated. A checked or traced call
// (opts.Verify, opts.Tracer or eng.NewTracer set) reads no record and
// simulates every configuration. eng.Backend must be the exact one.
func ExactCycles(ctx context.Context, w Workload, cfgs []sysmodel.Config, s Scale, opts sim.Options, eng EngineOptions) ([]uint64, error) {
	if eng.Backend != "" && eng.Backend != BackendExact {
		return nil, fmt.Errorf("explorer: exact cycles cannot come from the %s backend", eng.Backend)
	}
	read := opts.Verify == nil && opts.Tracer == nil && eng.NewTracer == nil
	out := make([]uint64, len(cfgs))
	var miss []sysmodel.Config
	var missAt []int
	for i, cfg := range cfgs {
		if read {
			if c, ok := cycles.peek(newCyclesKey(w, cfg, s, opts)); ok {
				out[i] = c
				continue
			}
		}
		miss, missAt = append(miss, cfg), append(missAt, i)
	}
	if read {
		eng.Metrics.Counter("explorer.cycles_cache_hits").Add(uint64(len(cfgs) - len(miss)))
	}
	if len(miss) == 0 {
		return out, nil
	}
	pts, err := RunConfigs(ctx, w, miss, s, opts, eng)
	if err != nil {
		return nil, err
	}
	for j, i := range missAt {
		out[i] = pts[j].Result.Cycles
	}
	return out, nil
}
