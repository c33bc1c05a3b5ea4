package backproject

import (
	"fmt"
	"math/rand"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func profSystem() *geometry.System {
	return &geometry.System{
		DSO: 250, DSD: 350,
		NU: 84, NV: 56, DU: 0.6, DV: 0.6,
		NP: 88,
		NX: 64, NY: 64, NZ: 64, DX: 0.2, DY: 0.2, DZ: 0.2,
	}
}

func benchKernelProfile(b *testing.B, kernel Kernel) {
	sys := profSystem()
	st, _ := projection.NewStack(sys.NU, sys.NP, sys.NV)
	rng := rand.New(rand.NewSource(7))
	for i := range st.Data {
		st.Data[i] = float32(rng.NormFloat64())
	}
	mats := kernelMats(sys)
	dev := device.New("bench", 0, 1)
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vol.Zero()
		if err := BatchKernel(dev, st, mats, vol, kernel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelProfile(b *testing.B)       { benchKernelProfile(b, KernelRecurrence) }
func BenchmarkKernelProfileScalar(b *testing.B) { benchKernelProfile(b, KernelScalar) }

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
