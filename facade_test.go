package sccsim_test

import (
	"context"
	"testing"

	"sccsim"
)

// TestRunPrivateCachesAPI: the Section 2.1 private-cache organization
// is Do with the private hierarchy axis.
func TestRunPrivateCachesAPI(t *testing.T) {
	s := sccsim.QuickScale()
	shared, err := runPoint(sccsim.BarnesHut, 4, 64*1024, s)
	if err != nil {
		t.Fatal(err)
	}
	private, err := runPrivate(sccsim.BarnesHut, 4, 64*1024, s)
	if err != nil {
		t.Fatal(err)
	}
	if private.Result.Cycles == 0 {
		t.Fatal("empty private-cache result")
	}
	if private.Result.Snoop.Invalidations < shared.Result.Snoop.Invalidations {
		t.Errorf("private caches fewer invalidations (%d) than shared (%d)",
			private.Result.Snoop.Invalidations, shared.Result.Snoop.Invalidations)
	}
}

// TestRunFlatAPI: a flat snoopy machine is Do with an explicit
// configuration of single-processor clusters.
func TestRunFlatAPI(t *testing.T) {
	s := sccsim.QuickScale()
	flat, err := runFlat(sccsim.MP3D, 8, 16*1024, s)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Config.Clusters != 8 || flat.Config.ProcsPerCluster != 1 {
		t.Errorf("flat config = %+v", flat.Config)
	}
	if flat.Result.Cycles == 0 {
		t.Error("empty flat result")
	}
}

func TestRunConfigAPI(t *testing.T) {
	s := sccsim.QuickScale()
	pt, err := runAssoc(sccsim.BarnesHut, 2, 32*1024, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Config.Assoc != 2 {
		t.Errorf("associativity not preserved: %+v", pt.Config)
	}
	// 2-way must not miss more than direct-mapped on the same trace.
	dm, err := runPoint(sccsim.BarnesHut, 2, 32*1024, s)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Result.ReadMissRate() > dm.Result.ReadMissRate()*1.02 {
		t.Errorf("2-way miss rate %.3f above direct-mapped %.3f",
			pt.Result.ReadMissRate(), dm.Result.ReadMissRate())
	}
}

func TestRunWithOptionsAPI(t *testing.T) {
	s := sccsim.QuickScale()
	base, err := runWithOptions(sccsim.MP3D, 2, 16*1024, s, sccsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := runWithOptions(sccsim.MP3D, 2, 16*1024, s, sccsim.Options{WriteBufferDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Result.Cycles < base.Result.Cycles {
		t.Error("depth-1 write buffer faster than default")
	}
}

func TestBuildCostPerfEntryAPI(t *testing.T) {
	e, err := sccsim.BuildCostPerfEntryCtx(context.Background(), sccsim.Cholesky,
		sccsim.WithScale(sccsim.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	if e.Normalized(8) != 1.0 {
		t.Errorf("Normalized(8) = %v", e.Normalized(8))
	}
	sc := sccsim.CompareSingleChip([]*sccsim.CostPerfEntry{e})
	if sc.AreaRatio < 1.3 || sc.AreaRatio > 1.45 {
		t.Errorf("area ratio = %v", sc.AreaRatio)
	}
	m := sccsim.CompareMCM([]*sccsim.CostPerfEntry{e})
	if m.MeanScaling <= 0 {
		t.Errorf("MCM scaling = %v", m.MeanScaling)
	}
}
