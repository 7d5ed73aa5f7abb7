// Oracle cross-check for the real simulator: every point of the
// design-space grid, for every workload, must produce exactly the
// numbers the naive map-based oracle model (internal/verify) computes
// from the same trace. Unlike a differential test against an older
// implementation — which proves the fast path matches the slow path but
// is blind to bugs they share — the oracle shares no simulation code
// with internal/sim, so agreement here pins the implementation to the
// documented model itself. The real runs execute with the invariant checker enabled, so
// this test also exercises the per-transaction coherence checks and the
// end-of-run residency audit across the whole grid.
package explorer_test

import (
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/verify"
	"sccsim/internal/workload/multiprog"
)

// gridSizes returns the SCC sizes to sweep: the full paper set, or a
// small/large pair under -short.
func gridSizes(t *testing.T) []int {
	if testing.Short() {
		return []int{sysmodel.SCCSizes[0], sysmodel.SCCSizes[len(sysmodel.SCCSizes)-1]}
	}
	return sysmodel.SCCSizes
}

func diffAgainstOracle(t *testing.T, res *sim.Result, oracle *verify.RunStats) {
	t.Helper()
	real := res.VerifyStats()
	for _, d := range verify.DiffRunStats(oracle, &real) {
		t.Errorf("oracle divergence: %s", d)
	}
}

func TestOracleMatchesSimulatorFullGrid(t *testing.T) {
	s := explorer.QuickScale()
	for _, w := range explorer.ParallelWorkloads {
		w := w
		t.Run(string(w), func(t *testing.T) {
			t.Parallel()
			for _, ppc := range sysmodel.ProcsPerClusterSweep {
				prog, err := explorer.GenerateParallel(w, sysmodel.DefaultClusters*ppc, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range gridSizes(t) {
					cfg := sysmodel.Default(ppc, size)
					res, err := sim.Run(cfg, sim.Options{Verify: &verify.Options{}}, prog)
					if err != nil {
						t.Fatalf("ppc=%d scc=%d: %v", ppc, size, err)
					}
					oracle, err := verify.RunOracle(cfg, prog, verify.OracleOptions{})
					if err != nil {
						t.Fatalf("ppc=%d scc=%d: oracle: %v", ppc, size, err)
					}
					diffAgainstOracle(t, res, oracle)
					if t.Failed() {
						t.Fatalf("oracle diverged at %s ppc=%d scc=%d", w, ppc, size)
					}
				}
			}
		})
	}

	t.Run(string(explorer.Multiprog), func(t *testing.T) {
		t.Parallel()
		s := explorer.QuickScale()
		refs := s.MultiprogRefs
		quantum := multiprog.Quantum(refs)
		procs, err := multiprog.Generate(multiprog.Params{RefsPerApp: refs, Seed: s.Seed})
		if err != nil {
			t.Fatal(err)
		}
		oprocs := make([]verify.Process, len(procs))
		for i, p := range procs {
			oprocs[i] = verify.Process{Name: p.Name, Refs: p.Refs}
		}
		for _, ppc := range sysmodel.ProcsPerClusterSweep {
			for _, size := range gridSizes(t) {
				cfg := sysmodel.Config{
					Clusters: 1, ProcsPerCluster: ppc, SCCBytes: size,
					LoadLatency: sysmodel.ImpliedLoadLatency(ppc), Assoc: 1,
				}
				res, err := sim.RunMultiprog(cfg, sim.Options{Verify: &verify.Options{}}, procs, quantum)
				if err != nil {
					t.Fatalf("ppc=%d scc=%d: %v", ppc, size, err)
				}
				oracle, err := verify.RunOracleMultiprog(cfg, oprocs, quantum, verify.OracleOptions{})
				if err != nil {
					t.Fatalf("ppc=%d scc=%d: oracle: %v", ppc, size, err)
				}
				diffAgainstOracle(t, res, oracle)
				if t.Failed() {
					t.Fatalf("oracle diverged at multiprog ppc=%d scc=%d", ppc, size)
				}
			}
		}
	})
}
