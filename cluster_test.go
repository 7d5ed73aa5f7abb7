package sccsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"sccsim"
)

// TestSweepWithClusterFallsBackWhenRemoteFails: WithCluster over a
// remote that always errors still produces the single-node grid.
func TestSweepWithClusterFallsBackWhenRemoteFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep")
	}
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)
	ctx := context.Background()
	want, err := sccsim.SweepCtx(ctx, sccsim.BarnesHut, sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	got, err := sccsim.SweepCtx(ctx, sccsim.BarnesHut,
		sccsim.WithScale(sccsim.QuickScale()),
		sccsim.WithCluster(remoteFunc(func(ctx context.Context, w sccsim.Workload, ppc, sccBytes int) (*sccsim.Point, error) {
			return nil, errors.New("no workers")
		})))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("cluster-fallback grid differs from single-node grid")
	}
}

// remoteFunc adapts a function to the Remote interface for tests.
type remoteFunc func(ctx context.Context, w sccsim.Workload, ppc, sccBytes int) (*sccsim.Point, error)

func (f remoteFunc) RunPoint(ctx context.Context, w sccsim.Workload, ppc, sccBytes int) (*sccsim.Point, error) {
	return f(ctx, w, ppc, sccBytes)
}
