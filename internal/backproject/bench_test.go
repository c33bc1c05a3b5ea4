package backproject

import (
	"fmt"
	"math/rand"
	"testing"

	"distfdk/internal/dataset"
	"distfdk/internal/device"
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

// BenchmarkRowLaunch times what one (row, projection) pair costs a k-tile:
// the row constants, rowSpans and one launch of the assembly, as
// accumulateSlices makes them for one worker. The row is the middle row of
// the middle slab of the benchmark's single-kernel shape (tomo_00030 at
// -div 8, 96³, 12-slice slabs) and of its single-filter shape (24³, 3-slice
// slabs), over a ring holding the slab's detector rows of random samples;
// the projection steps through all of them from one launch to the next.
// ns/update divides by the tile's voxels, nx·h.
func BenchmarkRowLaunch(b *testing.B) {
	if !simdAvailable() {
		b.Skip("no AVX2 on this host")
	}
	for _, shape := range []struct {
		name string
		n    int
	}{{"single-kernel", 96}, {"single-filter", 24}} {
		b.Run(shape.name, func(b *testing.B) {
			ds, err := dataset.ByName("tomo_00030")
			if err != nil {
				b.Fatal(err)
			}
			scaled, err := ds.Scaled(8)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := scaled.System(shape.n)
			if err != nil {
				b.Fatal(err)
			}
			nz := shape.n / 8
			z0 := nz * 4
			rows := sys.ComputeAB(z0, z0+nz)
			dev := device.New("bench", 0, 1)
			ring, err := device.NewProjRing(dev, sys.NU, sys.NP, rows.Len())
			if err != nil {
				b.Fatal(err)
			}
			defer ring.Close()
			if err := ring.LoadRows(randomStack(sys, 5), rows); err != nil {
				b.Fatal(err)
			}
			a := ringAccess(ring)
			if !a.prepareSIMD() {
				b.Fatal("prepareSIMD refused the ring")
			}
			a.asm, a.win = true, a.newSpanWindow()
			mats := kernelMats(sys)
			pcs := make([]projConsts, len(mats))
			for s := range mats {
				pcs[s] = a.newProjConsts(s, &mats[s], sys.NX)
			}
			h := tileHeight(nz, 1)
			kf := make([]float32, h)
			for k := range kf {
				kf[k] = float32(z0 + k)
			}
			out := make([]float32, h*sys.NX*sys.NY)
			var ctr kernelCounters
			j := sys.NY / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.tileRec(out[j*sys.NX:], sys.NX*sys.NY, &pcs[i%len(pcs)], float32(j), kf, sys.NX, &ctr)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/launch")
			b.ReportMetric(ns/float64(sys.NX*h), "ns/update")
			b.ReportMetric(float64(h), "slices")
		})
	}
}
