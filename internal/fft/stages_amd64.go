//go:build amd64

package fft

import "distfdk/internal/cpufeat"

// hostPasses dispatches Convolve per host, as the back-projection kernel is
// dispatched: the AVX2 routines where cpufeat.AVX2 holds, the Go loops
// elsewhere. Both produce the same bits, so nothing selects between them but
// the host.
func hostPasses() *passes {
	if cpufeat.AVX2() {
		return &avx2
	}
	return &portable
}

var avx2 = passes{
	twiddle: twiddleAVX2, untwiddle: untwiddleAVX2,
	difStages: difStagesAVX2, ditStages: ditStagesAVX2,
	difRadix4: difRadix4AVX2, ditRadix4: ditRadix4AVX2,
	pairBlocks: pairBlocksAVX2,
}

// The AVX2 routines of stages_amd64.s, each under its contract in passes.
// They take their lengths from the first slice and trust the others to be as
// long as convolve makes them.

//go:noescape
func twiddleAVX2(ar, ai, br, bi, cos, sin []float64)

//go:noescape
func untwiddleAVX2(ar, ai, br, bi, cos, sin []float64)

//go:noescape
func difStagesAVX2(zr, zi, cos, sin []float64)

//go:noescape
func ditStagesAVX2(zr, zi, cos, sin []float64)

//go:noescape
func difRadix4AVX2(zr, zi []float64)

//go:noescape
func ditRadix4AVX2(zr, zi []float64)

//go:noescape
func pairBlocksAVX2(zr, zi, pa, pb, pg []float64)
