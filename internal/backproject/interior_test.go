package backproject

import (
	"math/rand"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The interior span must be sound: every column it reports must satisfy the
// exact float32 residency predicate the fast loop relies on, across random
// row geometries (including degenerate ones with clipped or empty windows).
func TestInteriorSpanSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5000; trial++ {
		a := projAccess{
			nu: 2 + rng.Intn(64),
			lo: rng.Intn(8),
		}
		a.hi = a.lo + rng.Intn(40)
		nx := 1 + rng.Intn(96)
		ax := float32(rng.NormFloat64())
		ay := float32(rng.NormFloat64())
		az := float32(rng.NormFloat64() * 0.02)
		xc := float32(rng.NormFloat64() * float64(a.nu))
		yc := float32(rng.NormFloat64() * float64(a.hi+2))
		zc := float32(0.2 + rng.Float64()*2)
		if trial%7 == 0 {
			zc = -zc // rows behind the source must yield an empty span
		}
		i0, i1 := a.interiorSpan(float64(ax), float64(xc), float64(ay), float64(yc), float64(az), float64(zc), nx)
		if i0 == i1 {
			continue
		}
		if i0 < 0 || i1 > nx {
			t.Fatalf("trial %d: span [%d,%d) outside row [0,%d)", trial, i0, i1, nx)
		}
		for i := i0; i < i1; i++ {
			if !a.interiorResident(i, ax, xc, ay, yc, az, zc) {
				t.Fatalf("trial %d: span [%d,%d) includes non-resident column %d (nu=%d rows=[%d,%d))",
					trial, i0, i1, i, a.nu, a.lo, a.hi)
			}
		}
	}
}

// A readable window under two rows can never host a full 2×2 footprint: the
// span must be empty and the kernel must take the border path for every
// sample, still matching the naive reference bit-for-bit.
func TestZeroWidthInteriorSpan(t *testing.T) {
	a := projAccess{nu: 16, lo: 3, hi: 4}
	if i0, i1 := a.interiorSpan(1, 0, 0, 3.2, 0, 1, 64); i0 != i1 {
		t.Fatalf("one-row window produced non-empty span [%d,%d)", i0, i1)
	}
	a = projAccess{nu: 16, lo: 5, hi: 5}
	if i0, i1 := a.interiorSpan(1, 0, 0, 5, 0, 1, 64); i0 != i1 {
		t.Fatalf("empty window produced non-empty span [%d,%d)", i0, i1)
	}

	// End to end: a one-row detector forces the border path everywhere.
	// The exact kernel must match the reference bit-for-bit; the fast
	// kernel stays inside the parity gate on this all-border,
	// heavily-clipped geometry.
	sys := testSystem()
	sys.NV = 1
	stack := randomStack(sys, 31)
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	naive(sys, stack, want)
	got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := BatchKernel(device.New("border", 0, 2), stack, kernelMats(sys), got, KernelExact); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("voxel %d: border-only batch %g != naive %g", i, got.Data[i], want.Data[i])
		}
	}
	forRecurrenceKernels(t, func(t *testing.T) {
		dev := device.New("border-rec", 0, 2)
		rec, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, stack, kernelMats(sys), rec); err != nil {
			t.Fatal(err)
		}
		assertWithinParityGate(t, want, rec)
		if l := dev.Snapshot(); l.InteriorSamples != 0 || l.BorderSamples == 0 {
			t.Errorf("one-row detector: %d interior and %d border samples, want all border", l.InteriorSamples, l.BorderSamples)
		}
	})
}

// Heavily off-centre detectors clip the interior span asymmetrically; the
// stitched border/interior/border row must stay bit-identical to the naive
// per-sample reference under the exact kernel, the fast kernel must
// stay inside the parity gate while skipping the provably-zero columns
// past the detector edge, and streaming must stay bit-identical to batch.
func TestClippedSpanParity(t *testing.T) {
	forRecurrenceKernels(t, testClippedSpanParity)
}

func testClippedSpanParity(t *testing.T) {
	for _, sigma := range []struct{ u, v float64 }{{12, 0}, {0, 15}, {-20, 18}, {30, -25}} {
		sys := testSystem()
		sys.SigmaU, sys.SigmaV = sigma.u, sigma.v
		stack := randomStack(sys, 37)
		mats := kernelMats(sys)

		want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		naive(sys, stack, want)
		exact, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := BatchKernel(device.New("clip-exact", 0, 3), stack, mats, exact, KernelExact); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != exact.Data[i] {
				t.Fatalf("sigma %+v: voxel %d: batch %g != naive %g", sigma, i, exact.Data[i], want.Data[i])
			}
		}
		batchDev := device.New("clip", 0, 3)
		batch, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(batchDev, stack, mats, batch); err != nil {
			t.Fatal(err)
		}
		assertWithinParityGate(t, want, batch)
		if l := batchDev.Snapshot(); l.SkippedSamples == 0 || l.BorderSamples == 0 || l.InteriorSamples == 0 {
			t.Errorf("sigma %+v: off-centre detector exercised interior %d, border %d, skipped %d samples; want all three",
				sigma, l.InteriorSamples, l.BorderSamples, l.SkippedSamples)
		}

		dev := device.New("clip-stream", 0, 2)
		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
		if err != nil {
			t.Fatal(err)
		}
		if err := ring.LoadRows(stack, geometry.RowRange{Lo: 0, Hi: sys.NV}); err != nil {
			t.Fatal(err)
		}
		stream, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Streaming(dev, ring, mats, stream, geometry.RowRange{Lo: 0, Hi: sys.NV}); err != nil {
			t.Fatal(err)
		}
		ring.Close()
		for i := range want.Data {
			if stream.Data[i] != batch.Data[i] {
				t.Fatalf("sigma %+v: voxel %d: streaming %g != batch %g", sigma, i, stream.Data[i], batch.Data[i])
			}
		}
	}
}
