package experiments

import (
	"fmt"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// Fig12 reproduces the roofline analysis of Figure 12: for growing output
// sizes it measures the achieved FLOP/s of the streaming and conventional
// back-projection kernels (updates/s × FLOP-per-update), computes their
// modelled arithmetic intensity, and reports them against this machine's
// measured peak. The paper's shape — throughput flat near a constant
// fraction of peak while arithmetic intensity grows with volume size — is
// what this experiment checks; absolute TFLOP/s belong to the V100.
func Fig12(workers int) (*Table, error) {
	peak := measurePeakFlops(workers)
	t := &Table{
		Title:  "Figure 12 — roofline of the back-projection kernels (this machine)",
		Header: []string{"output", "kernel", "AI (FLOP/B)", "GFLOP/s", "% of peak", "GUPS"},
	}
	t.AddNote(fmt.Sprintf("measured FMA peak: %.2f GFLOP/s across %d workers", peak/1e9, workers))
	t.AddNote("AI model: FLOPs / (volume write+readback bytes + projection bytes); grows with output size as volume traffic amortises — the paper's 40.9→2954.7 trend")

	for _, n := range []int{32, 48, 64, 96} {
		sc, err := BuildScenario("tomo_00030", 8, n, workers)
		if err != nil {
			return nil, err
		}
		projBytes := sc.Stack.Bytes()
		volBytes := 4 * int64(n) * int64(n) * int64(n)
		updates := int64(n) * int64(n) * int64(n) * int64(sc.Sys.NP)
		flops := float64(updates) * backproject.FLOPPerUpdate
		ai := flops / float64(2*volBytes+projBytes)

		for _, kernel := range []string{"ours (streaming)", "RTK-style (batch)"} {
			elapsed, err := timeKernel(sc, kernel == "ours (streaming)", workers)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s at %d³: %w", kernel, n, err)
			}
			fl := flops / elapsed.Seconds()
			t.AddRow(fmt.Sprintf("%d³", n), kernel,
				fmt.Sprintf("%.1f", ai),
				fmt.Sprintf("%.2f", fl/1e9),
				fmt.Sprintf("%.1f%%", fl/peak*100),
				fmt.Sprintf("%.3f", float64(updates)/elapsed.Seconds()/1e9))
		}
	}
	return t, nil
}

// timeKernel measures one full back-projection, kernel time only: the input
// is in a full-height ring before the clock starts. The streaming variant
// launches once per slab of the paper's schedule, RTK-style once in all.
func timeKernel(sc *Scenario, streaming bool, workers int) (time.Duration, error) {
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	dev := device.New("fig12", 0, workers)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
	if err != nil {
		return 0, err
	}
	defer ring.Close()
	if err := ring.LoadRows(sc.Stack, sc.Stack.Rows()); err != nil {
		return 0, err
	}
	nb := sys.NZ
	if streaming {
		nb = (sys.NZ + core.DefaultBatchCount - 1) / core.DefaultBatchCount
	}
	var slabs []*volume.Volume
	for z0 := 0; z0 < sys.NZ; z0 += nb {
		slab, err := volume.NewSlab(sys.NX, sys.NY, min(nb, sys.NZ-z0), z0)
		if err != nil {
			return 0, err
		}
		slabs = append(slabs, slab)
	}
	start := time.Now()
	for _, s := range slabs {
		if err := backproject.Streaming(dev, ring, mats, s, sys.ComputeAB(s.Z0, s.Z0+s.NZ)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// measurePeakFlops runs a dependent-FMA micro-benchmark to estimate the
// machine's sustainable float32 FLOP/s at the given parallelism — the
// roofline's flat ceiling.
func measurePeakFlops(workers int) float64 {
	if workers <= 0 {
		workers = 1
	}
	const n = 1 << 16
	const iters = 64
	done := make(chan float64, workers)
	for w := 0; w < workers; w++ {
		go func(seed float32) {
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = seed + float32(i)*1e-6
			}
			start := time.Now()
			var a, b float32 = 1.000001, 1e-7
			for it := 0; it < iters; it++ {
				for i := range xs {
					xs[i] = xs[i]*a + b
				}
			}
			el := time.Since(start).Seconds()
			// 2 FLOPs per element-iteration.
			done <- 2 * float64(n) * float64(iters) / el
		}(float32(w))
	}
	var total float64
	for w := 0; w < workers; w++ {
		total += <-done
	}
	return total
}
