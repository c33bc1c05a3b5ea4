//go:build amd64

package fft

import (
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/cpufeat"
)

// The AVX2 passes and the Go passes must agree bit for bit, pass by pass and
// over a whole row, at every size from the plans that have no middle stage
// at all up past the paper's detector width, for full, short and odd rows.
func TestAVX2PassesMatchPortable(t *testing.T) {
	if !cpufeat.AVX2() {
		t.Skip("host has no usable AVX2")
	}
	rng := rand.New(rand.NewSource(5))
	same := func(what string, n int, gr, gi, ar, ai []float64) {
		t.Helper()
		for j := range gr {
			if math.Float64bits(gr[j]) != math.Float64bits(ar[j]) || math.Float64bits(gi[j]) != math.Float64bits(ai[j]) {
				t.Fatalf("n=%d %s point %d: Go (%g,%g), AVX2 (%g,%g)", n, what, j, gr[j], gi[j], ar[j], ai[j])
			}
		}
	}
	for n := MinRealSize; n <= 8192; n <<= 1 {
		resp := make([]float64, n/2+1)
		for k := range resp {
			resp[k] = rng.Float64()
		}
		p, err := NewRealPlan(n, resp)
		if err != nil {
			t.Fatal(err)
		}
		m := n / 2
		for _, pass := range []struct {
			name string
			run  func(k *passes, zr, zi []float64)
		}{
			{"difStages", func(k *passes, zr, zi []float64) { k.difStages(zr, zi, p.cos, p.sin) }},
			{"ditStages", func(k *passes, zr, zi []float64) { k.ditStages(zr, zi, p.cos, p.sin) }},
			{"difRadix4", func(k *passes, zr, zi []float64) { k.difRadix4(zr, zi) }},
			{"ditRadix4", func(k *passes, zr, zi []float64) { k.ditRadix4(zr, zi) }},
			{"pairBlocks", func(k *passes, zr, zi []float64) { k.pairBlocks(zr, zi, p.pa, p.pb, p.pg) }},
			{"forward", func(k *passes, zr, zi []float64) { p.forward(k, zr, zi, m/2-1) }},
			{"inverse", func(k *passes, zr, zi []float64) { p.inverse(k, zr, zi, m/2-2) }},
		} {
			gr, gi := randomRow(rng, m), randomRow(rng, m)
			ar, ai := append([]float64(nil), gr...), append([]float64(nil), gi...)
			pass.run(&portable, gr, gi)
			pass.run(&avx2, ar, ai)
			same(pass.name, n, gr, gi, ar, ai)
		}
		for _, rowLen := range []int{m, m - 1, m/2 + 1, 1} {
			x := randomRow(rng, rowLen)
			gr, gi, live := packRow(x, m)
			ar, ai, _ := packRow(x, m)
			if err := p.convolve(&portable, gr, gi, live); err != nil {
				t.Fatal(err)
			}
			if err := p.convolve(&avx2, ar, ai, live); err != nil {
				t.Fatal(err)
			}
			same("row", n, gr[:live], gi[:live], ar[:live], ai[:live])
		}
	}
}
