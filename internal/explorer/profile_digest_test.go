package explorer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"sccsim/internal/sysmodel"
)

// digestValue feeds every exported field of v into h in declaration
// order, length-prefixing slices and strings so that no two distinct
// values share an encoding. A Profile field of a kind it does not know
// fails the test instead of being skipped silently.
func digestValue(t *testing.T, h hash.Hash, v reflect.Value) {
	var buf [8]byte
	putU := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Pointer:
		digestValue(t, h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				digestValue(t, h, v.Field(i))
			}
		}
	case reflect.Slice:
		putU(uint64(v.Len()))
		if u, ok := v.Interface().([]uint64); ok {
			for _, x := range u {
				putU(x)
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			digestValue(t, h, v.Index(i))
		}
	case reflect.String:
		putU(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Int, reflect.Int64:
		putU(uint64(v.Int()))
	case reflect.Uint64:
		putU(v.Uint())
	default:
		t.Fatalf("profile digest: unhandled field kind %s", v.Kind())
	}
}

// TestQuickScaleProfileDigests pins the exact contents of every
// QuickScale reuse-distance profile the analytic backend builds: the
// three parallel workloads at 1, 2, 4 and 8 processors per cluster and
// multiprog at 1, 2, 4 and 8 scheduling slots. Each digest is a SHA-256
// over every exported Profile field. The values were recorded from the
// profile pass that still filled a per-processor histogram field,
// PerProc, with that field left out of the hash; that pass had matched
// the earlier map-based tracker and global min-clock merge exactly. A
// changed digest means the profile pass no longer computes the same
// histograms, issue cycles or read counts.
func TestQuickScaleProfileDigests(t *testing.T) {
	want := map[Workload][4]string{
		BarnesHut: {
			"3c449073bc4108d887a4e4a74900bdd8f0144d6b6fd14ce197810e55c0d90c6e",
			"a38234f837150194e9a7154faef59d78a82386a49960de6d589762080a951939",
			"848d2be0042ec3456a2cbc0adb43fc6f26f4be95f9b3c0093cfd998d0abd42c0",
			"e3869c499864aaf13060d5e17fc7946a8231d776ca47f80df5c2d5d5ffe0665e",
		},
		MP3D: {
			"e93babad4574171c28a1e0cc012b0fcf3b4b6b9a74b734d102f481671f005462",
			"58301f7136c23d582821ec6376ddbc2b81e0e7a9dd87c34e69f7dcc8b99382d7",
			"d4cd68862cdb8bba6a6797289240dc65d85c8a3e7ec7b4a52c102adb69de094b",
			"704ab9fad2275cbb9732d4393b2ad5b6a0d59475d0352035ba68ad421de7f8b1",
		},
		Cholesky: {
			"69072f4059445aae837bd37ade889a15ef22ef935a2085b9e3dca1f4090850b5",
			"4cd4032c52e3d4c3d3a36dccf552a94836b830bdd3f480909eb95496423ab1f5",
			"38ebc2c53d2e6c61e73fe3e30a713db371aa0dccbc3d8ae83bf053c6f5aeb409",
			"add4f1319a2cb46077a8f8e6334d935face4d282ff230d3852f91fdb3cf5b796",
		},
		Multiprog: {
			"6cc88440036925f44e9b1db743324696a9341d313fb596face67d2e448ed94a8",
			"6e7cabdcfe34158d00c6def1caf6ce48c067b44b957e10d7459582cb3d133c31",
			"760cf90f1b61e28fb7146e44286e4abebfe108c1bedd9ace053e782ebefbb975",
			"c746950875ef32b79380a3f83a01e7b228c96f6d8a3b1fa05c6dbb31a5b3b8d8",
		},
	}
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	for _, w := range []Workload{BarnesHut, MP3D, Cholesky, Multiprog} {
		for i, ppc := range []int{1, 2, 4, 8} {
			prof, err := profileFor(w, PointConfig(w, ppc, sysmodel.SCCSizes[0], sysmodel.Axes{}), QuickScale(), nil, nil)
			if err != nil {
				t.Fatalf("%s ppc %d: %v", w, ppc, err)
			}
			h := sha256.New()
			digestValue(t, h, reflect.ValueOf(prof))
			got := fmt.Sprintf("%x", h.Sum(nil))
			if got != want[w][i] {
				t.Errorf("%s ppc %d: profile digest %s, want %s", w, ppc, got, want[w][i])
			}
		}
	}
}
