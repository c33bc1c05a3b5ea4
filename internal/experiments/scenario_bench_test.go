package experiments

import (
	"testing"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// BenchmarkScenarioBatch back-projects the tomo_00030 div 8 → 64³ scenario
// through each kernel arithmetic in one batch launch — the kernel alone on
// a real geometry, runnable under pprof.
func BenchmarkScenarioBatch(b *testing.B) {
	sc, err := BuildScenario("tomo_00030", 8, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	for _, kernel := range []backproject.Kernel{backproject.KernelRecurrence, backproject.KernelScalar} {
		b.Run(kernel.String(), func(b *testing.B) {
			dev := device.New("bench", 0, 1)
			vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
			if err != nil {
				b.Fatal(err)
			}
			updates := int64(vol.Voxels()) * int64(sys.NP)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vol.Zero()
				if err := backproject.BatchKernel(dev, sc.Stack, mats, vol, kernel); err != nil {
					b.Fatal(err)
				}
			}
			gups := float64(updates) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gups, "GUPS")
		})
	}
}
