package experiments

import (
	"math"
	"testing"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// TestKernelParity is the arithmetic contract of the fast kernel on a real
// reconstruction (tomo_00030 ÷16 → 32³) rather than the property tests'
// white noise: it must stay inside the package parity gates against the
// exact kernel, scaled to the data's magnitude, and back-projecting slab by
// slab through a ring must reproduce the one batch launch bit for bit, the
// identity the decomposition rests on. (That the host's dispatch does not
// change a byte is backproject.TestDefaultKernelDispatch and
// core.TestDefaultKernelEveryDriver.)
func TestKernelParity(t *testing.T) {
	sc, err := BuildScenario("tomo_00030", 16, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(dev *device.Device, kernel backproject.Kernel) *volume.Volume {
		t.Helper()
		vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
		if err != nil {
			t.Fatal(err)
		}
		if err := backproject.BatchKernel(dev, sc.Stack, mats, vol, kernel); err != nil {
			t.Fatal(err)
		}
		return vol
	}
	exact := batch(device.New("exact", 0, 2), backproject.KernelExact)
	// The package gates are stated for unit-scale data.
	lo, hi := exact.MinMax()
	scale := math.Max(1, math.Max(math.Abs(float64(lo)), math.Abs(float64(hi))))
	gateRMSE, gateMaxAbs := backproject.ParityGateRMSE*scale, backproject.ParityGateMaxAbs*scale

	const kernel = backproject.KernelRecurrence
	t.Run(kernel.String(), func(t *testing.T) {
		dev := device.New("fast", 0, 2)
		rec := batch(dev, kernel)
		said := dev.Snapshot().Arithmetic()
		stats, err := volume.Compare(exact, rec)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s vs exact: rmse %.3g (gate %.3g), max-abs %.3g (gate %.3g)",
			said, stats.RMSE, gateRMSE, stats.MaxAbs, gateMaxAbs)
		if stats.RMSE > gateRMSE || stats.MaxAbs > gateMaxAbs {
			t.Error("outside the parity gate")
		}

		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
		if err != nil {
			t.Fatal(err)
		}
		defer ring.Close()
		if err := ring.LoadRows(sc.Stack, sc.Stack.Rows()); err != nil {
			t.Fatal(err)
		}
		stream, err := volume.New(sys.NX, sys.NY, sys.NZ)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < plan.BatchCount; c++ {
			z0, nz := plan.SlabZ(0, c)
			if nz == 0 {
				continue
			}
			slab, err := volume.NewSlab(sys.NX, sys.NY, nz, z0)
			if err != nil {
				t.Fatal(err)
			}
			if err := backproject.StreamingKernel(dev, ring, mats, slab, plan.SlabRows(0, c), kernel); err != nil {
				t.Fatal(err)
			}
			if err := stream.CopySlabFrom(slab); err != nil {
				t.Fatal(err)
			}
		}
		for i := range rec.Data {
			if stream.Data[i] != rec.Data[i] {
				t.Fatalf("voxel %d: streaming %g != batch %g", i, stream.Data[i], rec.Data[i])
			}
		}
	})
}
