package backproject

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// subPixel through the ring store must agree exactly with subPixel through
// a linear stack holding the same rows, for arbitrary resident windows and
// sample positions — the addressing equivalence the streaming kernel rests
// on.
func TestRingAndStackSamplingAgree(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 9)
	f := func(loRaw, lenRaw uint8, xRaw, yRaw int16, sRaw uint8) bool {
		h := 8
		lo := int(loRaw) % (sys.NV - h)
		rows := geometry.RowRange{Lo: lo, Hi: lo + 1 + int(lenRaw)%h}
		dev := device.New("prop", 0, 1)
		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, h)
		if err != nil {
			return false
		}
		defer ring.Close()
		if err := ring.LoadRows(stack, rows); err != nil {
			return false
		}
		sub, err := stack.ExtractRows(rows)
		if err != nil {
			return false
		}
		ra := ringAccess(ring)
		sa := stackAccess(sub)
		x := float32(xRaw) / 256 * float32(sys.NU)
		y := float32(lo) + float32(yRaw)/1024*float32(rows.Len()+4) // hover near the window
		s := int(sRaw) % sys.NP
		got := ra.subPixel(x, y, s)
		want := sa.subPixel(x, y, s)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Back-projection is linear in the projection data.
func TestBackprojectionLinearity(t *testing.T) {
	sys := testSystem()
	sys.NP = 8
	mats := kernelMats(sys)
	dev := device.New("lin", 0, 2)
	a := randomStack(sys, 10)
	b := randomStack(sys, 11)
	comb := randomStack(sys, 12)
	for i := range comb.Data {
		comb.Data[i] = 0.5*a.Data[i] + 2*b.Data[i]
	}
	va, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	vb, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	vc, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(dev, a, mats, va); err != nil {
		t.Fatal(err)
	}
	if err := Batch(dev, b, mats, vb); err != nil {
		t.Fatal(err)
	}
	if err := Batch(dev, comb, mats, vc); err != nil {
		t.Fatal(err)
	}
	for i := range vc.Data {
		want := 0.5*va.Data[i] + 2*vb.Data[i]
		if math.Abs(float64(vc.Data[i]-want)) > 2e-4*(1+math.Abs(float64(want))) {
			t.Fatalf("voxel %d: %g, want %g", i, vc.Data[i], want)
		}
	}
}

// Worker count must not change the result: each worker owns whole k
// slices, so the accumulation order per voxel is identical.
func TestWorkerCountInvariance(t *testing.T) {
	forRecurrenceKernels(t, testWorkerCountInvariance)
}

func testWorkerCountInvariance(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 13)
	mats := kernelMats(sys)
	var ref *volume.Volume
	for _, workers := range []int{1, 2, 5, 16} {
		dev := device.New("w", 0, workers)
		vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, stack, mats, vol); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vol
			continue
		}
		for i := range vol.Data {
			if vol.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d changed voxel %d", workers, i)
			}
		}
	}
}

// Zero projections back-project to a zero volume; a constant filtered
// projection set produces strictly positive voxels inside the FOV (the
// 1/z² weights are positive).
func TestBackprojectionSignBehaviour(t *testing.T) {
	sys := testSystem()
	mats := kernelMats(sys)
	dev := device.New("sign", 0, 2)
	zero := randomStack(sys, 14)
	for i := range zero.Data {
		zero.Data[i] = 0
	}
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(dev, zero, mats, vol); err != nil {
		t.Fatal(err)
	}
	for i, x := range vol.Data {
		if x != 0 {
			t.Fatalf("zero data produced voxel %d = %g", i, x)
		}
	}
	ones := randomStack(sys, 15)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	if err := Batch(dev, ones, mats, vol); err != nil {
		t.Fatal(err)
	}
	// Central voxel sees all projections near depth 1.
	c := vol.At(sys.NX/2, sys.NY/2, sys.NZ/2)
	if c <= 0 || math.Abs(float64(c)-float64(sys.NP)) > 0.2*float64(sys.NP) {
		t.Fatalf("centre voxel %g, want ≈ NP=%d", c, sys.NP)
	}
}

// Randomised slab schedules: any partition of Z into slabs reconstructs
// the identical volume through the ring.
func TestRandomSlabPartitionsEquivalent(t *testing.T) {
	forRecurrenceKernels(t, testRandomSlabPartitionsEquivalent)
}

func testRandomSlabPartitionsEquivalent(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 16)
	mats := kernelMats(sys)
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(device.New("ref", 0, 2), stack, mats, want); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		// Random slab heights between 1 and 9.
		var cuts []int
		for z := 0; z < sys.NZ; {
			nz := 1 + rng.Intn(9)
			if z+nz > sys.NZ {
				nz = sys.NZ - z
			}
			cuts = append(cuts, nz)
			z += nz
		}
		depth := 0
		z := 0
		for _, nz := range cuts {
			if l := sys.ComputeAB(z, z+nz).Len(); l > depth {
				depth = l
			}
			z += nz
		}
		dev := device.New("trial", 0, 2)
		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, depth)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		prev := geometry.RowRange{}
		z = 0
		for _, nz := range cuts {
			rows := sys.ComputeAB(z, z+nz)
			if !prev.IsEmpty() && rows.Lo >= prev.Hi {
				ring.Reset()
			} else {
				ring.Release(rows.Lo)
			}
			if err := ring.LoadRows(stack, geometry.DifferentialRows(prev, rows)); err != nil {
				t.Fatalf("trial %d z=%d: %v", trial, z, err)
			}
			prev = rows
			slab, _ := volume.NewSlab(sys.NX, sys.NY, nz, z)
			if err := Streaming(dev, ring, mats, slab, rows); err != nil {
				t.Fatal(err)
			}
			if err := got.CopySlabFrom(slab); err != nil {
				t.Fatal(err)
			}
			z += nz
		}
		ring.Close()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d (cuts %v): voxel %d differs", trial, cuts, i)
			}
		}
	}
}
