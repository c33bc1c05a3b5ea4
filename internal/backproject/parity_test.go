package backproject_test

import (
	"math"
	"testing"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/experiments"
	"distfdk/internal/volume"
)

// TestKernelParity holds the kernel to its oracle on a real reconstruction
// (tomo_00030 ÷16 → 32³) rather than the property tests' white noise: one
// batch launch must equal the oracle byte for byte under the default
// dispatch (subtest "recurrence") and with AVX2 masked off ("scalar"), and
// back-projecting slab by slab through a ring must reproduce it, the
// identity the decomposition rests on. An external test, because the
// scenario comes from internal/experiments, which imports this package.
func TestKernelParity(t *testing.T) {
	sc, err := experiments.BuildScenario("tomo_00030", 16, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
	if err != nil {
		t.Fatal(err)
	}
	newVolume := func(t *testing.T) *volume.Volume {
		t.Helper()
		vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
		if err != nil {
			t.Fatal(err)
		}
		return vol
	}
	same := func(t *testing.T, name string, want, got *volume.Volume) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("voxel %d: %s %g != %g", i, name, got.Data[i], want.Data[i])
			}
		}
	}
	oracle := newVolume(t)
	backproject.Reference(sc.Stack, mats, oracle)

	for _, dispatch := range []struct {
		name string
		avx2 bool
	}{{"recurrence", true}, {"scalar", false}} {
		t.Run(dispatch.name, func(t *testing.T) {
			if !dispatch.avx2 {
				defer cpufeat.SetAVX2ForTest(false)()
			}
			dev := device.New("parity", 0, 2)
			batch := newVolume(t)
			if err := backproject.Batch(dev, sc.Stack, mats, batch); err != nil {
				t.Fatal(err)
			}
			t.Logf("kernel %s", dev.Snapshot().Arithmetic())
			same(t, "the batch launch vs the oracle", oracle, batch)

			ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
			if err != nil {
				t.Fatal(err)
			}
			defer ring.Close()
			if err := ring.LoadRows(sc.Stack, sc.Stack.Rows()); err != nil {
				t.Fatal(err)
			}
			stream := newVolume(t)
			for c := 0; c < plan.BatchCount; c++ {
				z0, nz := plan.SlabZ(0, c)
				if nz == 0 {
					continue
				}
				slab, err := volume.NewSlab(sys.NX, sys.NY, nz, z0)
				if err != nil {
					t.Fatal(err)
				}
				if err := backproject.Streaming(dev, ring, mats, slab, plan.SlabRows(0, c)); err != nil {
					t.Fatal(err)
				}
				if err := stream.CopySlabFrom(slab); err != nil {
					t.Fatal(err)
				}
			}
			same(t, "streaming vs the batch launch", batch, stream)
		})
	}
}
