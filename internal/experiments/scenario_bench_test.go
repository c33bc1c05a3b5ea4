package experiments

import (
	"testing"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// BenchmarkScenarioBatch back-projects the tomo_00030 div 8 → 96³ scenario
// (the benchmark's single-kernel problem) in one batch launch through each
// spelling of the fast kernel — the host's dispatch, and the Go spelling a
// launch falls back to, which no command line selects — the kernel alone
// on a real geometry, runnable under pprof. The launch reads a ring as tall
// as the detector, loaded before the clock starts.
func BenchmarkScenarioBatch(b *testing.B) {
	sc, err := BuildScenario("tomo_00030", 8, 96, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	spellings := []bool{false}
	if cpufeat.AVX2() {
		spellings = []bool{true, false}
	}
	for _, avx2 := range spellings {
		name := device.ArithmeticScalar.String()
		if avx2 {
			name = device.ArithmeticAVX2.String()
		}
		b.Run(name, func(b *testing.B) {
			defer cpufeat.SetAVX2ForTest(avx2)()
			dev := device.New("bench", 0, 1)
			ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
			if err != nil {
				b.Fatal(err)
			}
			defer ring.Close()
			if err := ring.LoadRows(sc.Stack, sc.Stack.Rows()); err != nil {
				b.Fatal(err)
			}
			vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
			if err != nil {
				b.Fatal(err)
			}
			updates := int64(vol.Voxels()) * int64(sys.NP)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vol.Zero()
				if err := backproject.Streaming(dev, ring, mats, vol, sc.Stack.Rows()); err != nil {
					b.Fatal(err)
				}
			}
			gups := float64(updates) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gups, "GUPS")
		})
	}
}
