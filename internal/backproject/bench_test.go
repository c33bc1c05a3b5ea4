package backproject

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFusedInterior isolates the unguarded gather/accumulate loop on a
// long all-interior row, giving the per-sample floor the full kernel builds
// on.
func BenchmarkFusedInterior(b *testing.B) {
	const nu, nv, nx = 256, 256, 4096
	a := projAccess{nu: nu, np: 1, h: 0, lo: 0, hi: nv}
	a.sStride = nu
	a.data = make([]float32, nu*nv)
	rng := rand.New(rand.NewSource(1))
	for i := range a.data {
		a.data[i] = rng.Float32()
	}
	a.buildRowTable()
	out := make([]float32, nx)
	// A nearly-centered geometry: x sweeps most of the detector width,
	// y drifts slowly, z positive and nearly flat.
	ax, xc := float32(0.05), float32(8)
	ay, yc := float32(0.004), float32(40)
	az, zc := float32(0.00001), float32(1.02)
	f0, f1 := a.interiorSpan(float64(ax), float64(xc), float64(ay), float64(yc), float64(az), float64(zc), nx)
	f0 = (f0 + 1) &^ 1
	f1 = f1 &^ 1
	if f1-f0 < nx/2 {
		b.Fatalf("span too small: [%d,%d)", f0, f1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.fusedInterior(out, 0, f0, f1, ax, ay, az, xc, yc, zc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f1-f0), "ns/sample")
}

// BenchmarkFusedInteriorSIMD times the AVX2 8-lane kernel on the same row
// shape, the apples-to-apples twin of BenchmarkFusedInterior.
func BenchmarkFusedInteriorSIMD(b *testing.B) {
	if !simdAvailable() {
		b.Skip("no AVX2 on this host")
	}
	const nu, nv, nx = 256, 256, 4096
	a := projAccess{nu: nu, np: 1, h: 0, lo: 0, hi: nv}
	a.sStride = nu
	a.data = make([]float32, nu*nv)
	rng := rand.New(rand.NewSource(1))
	for i := range a.data {
		a.data[i] = rng.Float32()
	}
	a.buildRowTable()
	if !a.prepareSIMD() {
		b.Fatal("prepareSIMD failed")
	}
	out := make([]float32, nx)
	ax, xc := float32(0.05), float32(8)
	ay, yc := float32(0.004), float32(40)
	az, zc := float32(0.00001), float32(1.02)
	f0, f1 := a.interiorSpan(float64(ax), float64(xc), float64(ay), float64(yc), float64(az), float64(zc), nx)
	if f1-f0 < nx/2 {
		b.Fatalf("span too small: [%d,%d)", f0, f1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.fusedSpanSIMD(out, 0, f0, f1, f0, f1, ax, ay, az, xc, yc, zc)
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
	const nu, nv, nx = 256, 256, 4096
	a := projAccess{nu: nu, np: 1, h: 0, lo: 0, hi: nv}
	a.sStride = nu
	a.data = make([]float32, nu*nv)
	rng := rand.New(rand.NewSource(1))
	for i := range a.data {
		a.data[i] = rng.Float32()
	}
	a.buildRowTable()
	if !a.prepareSIMD() {
		b.Fatal("prepareSIMD failed")
	}
	out := make([]float32, nx)
	ax, xc := float32(0.05), float32(8)
	ay, yc := float32(0.004), float32(40)
	az, zc := float32(0.00001), float32(1.02)
	f0, f1 := a.interiorSpan(float64(ax), float64(xc), float64(ay), float64(yc), float64(az), float64(zc), nx)
	for _, span := range []int{38, 64, 128, 512, f1 - f0 - 3} {
		b.Run(fmt.Sprintf("span%d", span), func(b *testing.B) {
			s0 := f0 + 3
			s1 := s0 + span
			if s1 > f1 {
				b.Fatal("span too long")
			}
			for i := 0; i < b.N; i++ {
				a.fusedSpanSIMD(out, 0, s0, s1, s0, s1, ax, ay, az, xc, yc, zc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(span), "ns/sample")
		})
	}
}
