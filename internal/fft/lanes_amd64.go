//go:build amd64

package fft

import "distfdk/internal/cpufeat"

// hostPasses dispatches ConvolveLanes per host, as the back-projection
// kernel is dispatched: one point of the eight rows per ZMM register where
// cpufeat.AVX512 holds, per pair of YMM registers where only cpufeat.AVX2
// does, the Go loops elsewhere. All three produce the same bits, so nothing
// selects between them but the host.
func hostPasses() *passes {
	switch {
	case cpufeat.AVX512():
		return &avx512
	case cpufeat.AVX2():
		return &avx2
	}
	return &portable
}

var avx512 = passes{
	twiddle: twiddle512, untwiddle: untwiddle512,
	difStages: func(zr, zi, cos, sin []float64) { difStagesBy(difStage512, zr, zi, cos, sin) },
	ditStages: func(zr, zi, cos, sin []float64) { ditStagesBy(ditStage512, zr, zi, cos, sin) },
	difRadix4: difRadix4512, ditRadix4: ditRadix4512,
	pairBlocks: pairBlocks512,
}

var avx2 = passes{
	twiddle: twiddle256, untwiddle: untwiddle256,
	difStages: func(zr, zi, cos, sin []float64) { difStagesBy(difStage256, zr, zi, cos, sin) },
	ditStages: func(zr, zi, cos, sin []float64) { ditStagesBy(ditStage256, zr, zi, cos, sin) },
	difRadix4: difRadix4256, ditRadix4: ditRadix4256,
	pairBlocks: pairBlocks256,
}

// difStagesBy runs the decimation-in-frequency stages of spans m/4 down to
// 4 with stage, which runs the one of span h; ditStagesBy the
// decimation-in-time stages of spans 4 up to m/4.
func difStagesBy(stage func(zr, zi, cos, sin []float64, h int), zr, zi, cos, sin []float64) {
	for h := len(zr) / Lanes / 4; h >= 4; h >>= 1 {
		stage(zr, zi, cos, sin, h)
	}
}

func ditStagesBy(stage func(zr, zi, cos, sin []float64, h int), zr, zi, cos, sin []float64) {
	for h := 4; h <= len(zr)/Lanes/4; h <<= 1 {
		stage(zr, zi, cos, sin, h)
	}
}

// The routines of lanes_amd64.s, each under its contract in passes (a
// ·…Stage routine runs the one stage of span h): the ·…512 ones need
// AVX-512, the ·…256 ones AVX2.

//go:noescape
func twiddle512(ar, ai, br, bi, cos, sin []float64)

//go:noescape
func untwiddle512(ar, ai, br, bi, cos, sin []float64)

//go:noescape
func difStage512(zr, zi, cos, sin []float64, h int)

//go:noescape
func ditStage512(zr, zi, cos, sin []float64, h int)

//go:noescape
func difRadix4512(zr, zi []float64)

//go:noescape
func ditRadix4512(zr, zi []float64)

//go:noescape
func pairBlocks512(zr, zi, pa, pb, pg []float64)

//go:noescape
func twiddle256(ar, ai, br, bi, cos, sin []float64)

//go:noescape
func untwiddle256(ar, ai, br, bi, cos, sin []float64)

//go:noescape
func difStage256(zr, zi, cos, sin []float64, h int)

//go:noescape
func ditStage256(zr, zi, cos, sin []float64, h int)

//go:noescape
func difRadix4256(zr, zi []float64)

//go:noescape
func ditRadix4256(zr, zi []float64)

//go:noescape
func pairBlocks256(zr, zi, pa, pb, pg []float64)
