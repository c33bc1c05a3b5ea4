//go:build amd64

package cpufeat

import "testing"

// On amd64 the probe must agree with a fresh detection — init ran the
// same code, so a mismatch means an override leaked from another test.
func TestProbeIsStable(t *testing.T) {
	hasAVX2, hasAVX512 := features(probe())
	if AVX2() != hasAVX2 || AVX512() != hasAVX512 {
		t.Fatalf("stored probe (AVX2 %v, AVX-512 %v) disagrees with fresh detection (%v, %v)", AVX2(), AVX512(), hasAVX2, hasAVX512)
	}
	t.Logf("AVX2 %v, AVX-512 %v", hasAVX2, hasAVX512)
}
