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
// spelling of the fast kernel the host runs — the host's dispatch, the
// 8-lane assembly an AVX2-only host runs, and the Go spelling a launch falls
// back to, none of which a command line selects — the kernel alone on a
// real geometry, runnable under pprof. Each is reached by masking the
// host's features down to it, and the ledger must name it. The launch reads a ring as tall
// as the detector, loaded before the clock starts.
func BenchmarkScenarioBatch(b *testing.B) {
	sc, err := BuildScenario("tomo_00030", 8, 96, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	for _, spelling := range []struct {
		arith device.Arithmetic
		runs  bool
		mask  func(bool) func()
	}{
		{device.ArithmeticAVX512, cpufeat.AVX512(), nil},
		{device.ArithmeticAVX2, cpufeat.AVX2(), cpufeat.SetAVX512ForTest},
		{device.ArithmeticScalar, true, cpufeat.SetAVX2ForTest},
	} {
		if !spelling.runs {
			continue
		}
		b.Run(spelling.arith.String(), func(b *testing.B) {
			if spelling.mask != nil {
				defer spelling.mask(false)()
			}
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
			b.StopTimer()
			if got := dev.Snapshot().Arithmetic(); got != spelling.arith.String() {
				b.Fatalf("the launches ran %q", got)
			}
			gups := float64(updates) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gups, "GUPS")
		})
	}
}
