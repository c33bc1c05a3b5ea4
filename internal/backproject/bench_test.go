package backproject

import (
	"fmt"
	"math/rand"
	"testing"

	"distfdk/internal/geometry"
)

// benchRow is the long all-interior row the kernel benchmarks time: a
// nearly-centered geometry where x sweeps most of the detector width, y
// drifts slowly and z is positive and nearly flat. It returns the access,
// the row's interior span in h slices (v's constant stepping by a tenth of
// a detector row per slice) and a launch of a sub-span of it into them
// through the spelling a.asm names.
func benchRow(b *testing.B, h int) (a *projAccess, f0, f1 int, launch func(c0, c1 int)) {
	const nu, nv, nx = 256, 256, 4096
	a = &projAccess{nu: nu, np: 1, lo: 0, hi: nv}
	a.data = make([]float32, nu*nv)
	rng := rand.New(rand.NewSource(1))
	for i := range a.data {
		a.data[i] = rng.Float32()
	}
	a.buildRowTable()
	if !a.prepareSIMD() {
		b.Fatal("prepareSIMD refused a small buffer")
	}
	a.win = a.newSpanWindow()
	m := geometry.Mat34x4{R0: [4]float32{0.05}, R1: [4]float32{0.004}, R2: [4]float32{0.00001}}
	xc, yc, zc := float32(8), float32(40), float32(1.02)
	ycs := make([]float32, h)
	for k := range ycs {
		ycs[k] = yc + 0.1*float32(k)
	}
	pc := a.newProjConsts(0, &m, nx)
	_, f0, f1, _ = a.rowSpans(&pc, xc, ycs[0], ycs[h-1], zc, nx)
	if f1-f0 < nx/2 {
		b.Fatalf("span too small: [%d,%d)", f0, f1)
	}
	out := make([]float32, h*nx)
	return a, f0, f1, func(c0, c1 int) { a.launchSpan(&pc.args, out, nx, c0, c1, c0, c1, xc, zc, ycs) }
}

// BenchmarkFusedInterior isolates the Go spelling's unguarded body — what a
// launch that cannot run the assembly falls back to — on a long
// all-interior row: in one slice, which is how a tilted (not zInvariant)
// matrix is walked, and in a k-tile of zBlock slices, which is how every
// shipped geometry is.
func BenchmarkFusedInterior(b *testing.B) {
	for _, h := range []int{1, zBlock} {
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			_, f0, f1, launch := benchRow(b, h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				launch(f0, f1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64((f1-f0)*h), "ns/sample")
		})
	}
}

// BenchmarkFusedInteriorSIMD times the assembly spelling on the same row in
// one slice, the apples-to-apples twin of BenchmarkFusedInterior/h1.
func BenchmarkFusedInteriorSIMD(b *testing.B) {
	if !simdAvailable() {
		b.Skip("no AVX2 on this host")
	}
	a, f0, f1, launch := benchRow(b, 1)
	a.asm = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launch(f0, f1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f1-f0), "ns/sample")
}

// BenchmarkFusedInteriorSIMDSpans times the same kernel over span lengths
// from 38 samples to the whole row, so a fixed per-call cost shows as
// ns/sample falling with span length.
func BenchmarkFusedInteriorSIMDSpans(b *testing.B) {
	if !simdAvailable() {
		b.Skip("no AVX2 on this host")
	}
	a, f0, f1, launch := benchRow(b, 1)
	a.asm = true
	for _, span := range []int{38, 64, 128, 512, f1 - f0 - 3} {
		b.Run(fmt.Sprintf("span%d", span), func(b *testing.B) {
			s0 := f0 + 3
			s1 := s0 + span
			if s1 > f1 {
				b.Fatal("span too long")
			}
			for i := 0; i < b.N; i++ {
				launch(s0, s1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(span), "ns/sample")
		})
	}
}
