package sysmodel

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultConfig(t *testing.T) {
	c := Default(2, 32*1024)
	if c.Clusters != 4 {
		t.Errorf("Clusters = %d, want 4", c.Clusters)
	}
	if c.ProcsPerCluster != 2 {
		t.Errorf("ProcsPerCluster = %d, want 2", c.ProcsPerCluster)
	}
	if c.LoadLatency != 3 {
		t.Errorf("LoadLatency = %d, want 3 (2-processor single-chip SCC)", c.LoadLatency)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Default config invalid: %v", err)
	}
}

func TestImpliedLoadLatency(t *testing.T) {
	cases := []struct{ p, want int }{{1, 2}, {2, 3}, {4, 4}, {8, 4}}
	for _, c := range cases {
		if got := ImpliedLoadLatency(c.p); got != c.want {
			t.Errorf("ImpliedLoadLatency(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestProcsAndBanks(t *testing.T) {
	c := Default(8, 128*1024)
	if c.Procs() != 32 {
		t.Errorf("Procs() = %d, want 32", c.Procs())
	}
	if c.Banks() != 32 {
		t.Errorf("Banks() = %d, want 32 (4 banks per processor)", c.Banks())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Clusters: 0, ProcsPerCluster: 1, SCCBytes: 4096, LoadLatency: 2, Assoc: 1},
		{Clusters: 4, ProcsPerCluster: 0, SCCBytes: 4096, LoadLatency: 2, Assoc: 1},
		{Clusters: 4, ProcsPerCluster: 1, SCCBytes: 8, LoadLatency: 2, Assoc: 1},
		{Clusters: 4, ProcsPerCluster: 1, SCCBytes: 4097, LoadLatency: 2, Assoc: 1},
		{Clusters: 4, ProcsPerCluster: 1, SCCBytes: 4096, LoadLatency: 5, Assoc: 1},
		{Clusters: 4, ProcsPerCluster: 1, SCCBytes: 4096, LoadLatency: 2, Assoc: 0},
		{Clusters: 4, ProcsPerCluster: 1, SCCBytes: 16, LoadLatency: 2, Assoc: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

// TestValidateEnforcesSimulatorLimits pins the limits the simulator
// cannot run past — 256 processors (the scheduler's 8-bit id), 32
// clusters or private caches (the bus's 32-bit presence word), and a
// power-of-two bank count no larger than the SCC's line count — and
// that the largest machines within them stay valid.
func TestValidateEnforcesSimulatorLimits(t *testing.T) {
	bad := map[string]Config{
		"512 processors":        Default(128, 64*1024),
		"2^40 per cluster":      Default(1<<40, 64*1024),
		"33 clusters":           {Clusters: 33, ProcsPerCluster: 1, SCCBytes: 4096, LoadLatency: 2, Assoc: 1},
		"12 banks":              Default(3, 64*1024),
		"12 banks hybrid":       Axes{Hierarchy: HierarchyHybrid}.Apply(Default(3, 64*1024)),
		"more banks than lines": Default(64, 512),
		"64 private caches":     Axes{Hierarchy: HierarchyPrivate}.Apply(Default(16, 64*1024)),
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate(%+v) = nil, want error", name, c)
		}
	}
	good := map[string]Config{
		"256 processors":       {Clusters: 32, ProcsPerCluster: 8, SCCBytes: 4096, LoadLatency: 4, Assoc: 1},
		"one 256-proc cluster": {Clusters: 1, ProcsPerCluster: 256, SCCBytes: 16 * 1024, LoadLatency: 4, Assoc: 1},
		"3 private caches":     Axes{Hierarchy: HierarchyPrivate}.Apply(Config{Clusters: 1, ProcsPerCluster: 3, SCCBytes: 48 * 1024, LoadLatency: 4, Assoc: 1}),
		"32 private caches":    Axes{Hierarchy: HierarchyPrivate}.Apply(Default(8, 64*1024)),
	}
	for name, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate(%+v) = %v, want nil", name, c, err)
		}
	}
}

func TestValidateAcceptsWholeSweep(t *testing.T) {
	for _, p := range ProcsPerClusterSweep {
		for _, s := range SCCSizes {
			c := Default(p, s)
			if err := c.Validate(); err != nil {
				t.Errorf("sweep point %v invalid: %v", c, err)
			}
		}
	}
}

func TestConfigString(t *testing.T) {
	s := Default(2, 32*1024).String()
	if !strings.Contains(s, "2P") || !strings.Contains(s, "32KB") {
		t.Errorf("Config.String() = %q, want it to mention 2P and 32KB", s)
	}
}

func TestSweepConstants(t *testing.T) {
	if len(SCCSizes) != 8 {
		t.Errorf("len(SCCSizes) = %d, want 8 (4KB..512KB)", len(SCCSizes))
	}
	if SCCSizes[0] != 4*1024 || SCCSizes[7] != 512*1024 {
		t.Errorf("SCCSizes endpoints = %d, %d; want 4096, 524288", SCCSizes[0], SCCSizes[7])
	}
	for i := 1; i < len(SCCSizes); i++ {
		if SCCSizes[i] != 2*SCCSizes[i-1] {
			t.Errorf("SCCSizes[%d] = %d, want power-of-two progression", i, SCCSizes[i])
		}
	}
}

func TestLineAddr(t *testing.T) {
	cases := []struct{ addr, want uint32 }{
		{0, 0}, {15, 0}, {16, 16}, {0x1234, 0x1230},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr); got != c.want {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

// Property: LineAddr is idempotent and LineIndex*LineSize == LineAddr.
func TestLineAddrProperty(t *testing.T) {
	f := func(addr uint32) bool {
		la := LineAddr(addr)
		return LineAddr(la) == la &&
			LineIndex(addr)*LineSize == la &&
			addr-la < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
