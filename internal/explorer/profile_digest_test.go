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
// over every exported Profile field, recorded from the map-based
// tracker and global min-clock merge that the current profile pass
// replaced; a changed digest means the profile pass no longer computes
// the same histograms, issue cycles or read counts.
func TestQuickScaleProfileDigests(t *testing.T) {
	want := map[Workload][4]string{
		BarnesHut: {
			"8e2ffe3ce0e6d797a91c1f167a6161f237d60d632920abca5b82cae03d36bb25",
			"9151daf3473a73450b07a2717fbe09ac05820095914f46d8cd8af2860a66fb24",
			"2b0f3a871dae55e72264362e4e0c23eb4733a2642faaf7a79af44e03a55f714b",
			"adc8d103c1e181ccb88645be5ab6a6fc1b60a830eebfaf355b1d0017d8102c17",
		},
		MP3D: {
			"6f021691c84494aa7071fa21f71c143e11e7693711a143c9345830919bf5e747",
			"08e8ec3143004b9eaede9229fc35ec9eb1d6c4b3264ca5547d19a462c490df75",
			"0de80d5a3b1110ed60f436cb67f8043ab868e8e07e4001fc6a4a99d0b4781dff",
			"16222d37c54b9d99c4740d9e580bbbe7b0c3252fd3c6b435d042d6c39528ab75",
		},
		Cholesky: {
			"c1dcdd7d980b283ff68d93ff85b1cc5b6ea84778c66a0b273a43fac2ff48d265",
			"c89e13d49b0c472067ae9e3ea3d6138de0dabe88cc42c292efccd8d580131fa4",
			"199ecc3997d30ffc0454a8bfa74802b6b2296356a4ee68e1438c7c58ef12be07",
			"cc36750d48f55f0a4aacfe59530ba4cc622ef336b12538e7fa1dea475be197c0",
		},
		Multiprog: {
			"e19f5c84537a8a8eb80bbcd3226fc2141856bde878a7f6460814e267f23e5b92",
			"16c16754a54dc6a4a8adcb9a12d99cf1ffe3d8e1d818a347c407a9afadfec9ec",
			"8196e343917c4afe960548889d46eb9d88a20116641fb9ed4e7a02ef318487c3",
			"547598597fcdd9313b88fbf820b8c2df4c836fa09e9cd8c019c0891a2a5007a7",
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
