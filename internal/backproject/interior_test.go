package backproject

import (
	"fmt"
	"math/rand"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The spans rowSpans solves for one row must be sound: every column of the
// interior resident and every column outside the support provably zero,
// under the footprint the kernel computes, across random row geometries
// (including degenerate ones with clipped or empty windows, and rows behind
// the source, which must get no interior and no skipped column).
func TestInteriorSpanSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5000; trial++ {
		a := projAccess{
			nu: 2 + rng.Intn(64),
			lo: rng.Intn(8),
		}
		a.hi = a.lo + rng.Intn(40)
		a.win = a.newSpanWindow()
		nx := 1 + rng.Intn(96)
		ax := float32(rng.NormFloat64())
		ay := float32(rng.NormFloat64())
		az := float32(rng.NormFloat64() * 0.02)
		xc := float32(rng.NormFloat64() * float64(a.nu))
		yc := float32(rng.NormFloat64() * float64(a.hi+2))
		zc := float32(0.2 + rng.Float64()*2)
		if trial%7 == 0 {
			zc = -zc
		}
		m := geometry.Mat34x4{R0: [4]float32{ax}, R1: [4]float32{ay}, R2: [4]float32{az}}
		pc := a.newProjConsts(0, &m, nx)
		c0, i0, i1, c1 := a.rowSpans(&pc, xc, yc, yc, zc, nx)
		if zc < 0 && (c0 != 0 || c1 != nx || i0 != i1) {
			t.Fatalf("trial %d: a row behind the source got support [%d,%d), interior [%d,%d)", trial, c0, c1, i0, i1)
		}
		for i := 0; i < nx; i++ {
			iu, iv, finite := footprint(i, ax, ay, az, xc, yc, zc)
			if i >= i0 && i < i1 && !a.resident(iu, iv) {
				t.Fatalf("trial %d: interior [%d,%d) includes non-resident column %d (nu=%d rows=[%d,%d))",
					trial, i0, i1, i, a.nu, a.lo, a.hi)
			}
			if (i < c0 || i >= c1) && !(finite && (iu < -1 || iu >= a.nu || iv < a.lo-1 || iv >= a.hi)) {
				t.Fatalf("trial %d: support [%d,%d) skips column %d, which can contribute", trial, c0, c1, i)
			}
		}
	}
}

// A readable window under two rows can never host a full 2×2 footprint: the
// interior must be empty and the kernel must take the guarded body for every
// sample, still matching the oracle bit for bit.
func TestZeroWidthInteriorSpan(t *testing.T) {
	row := geometry.Mat34x4{R0: [4]float32{1}}
	for _, c := range []struct {
		a  projAccess
		yc float32
	}{{projAccess{nu: 16, lo: 3, hi: 4}, 3.2}, {projAccess{nu: 16, lo: 5, hi: 5}, 5}} {
		a := c.a
		a.win = a.newSpanWindow()
		pc := a.newProjConsts(0, &row, 64)
		if _, i0, i1, _ := a.rowSpans(&pc, 0, c.yc, c.yc, 1, 64); i0 != i1 {
			t.Fatalf("window rows [%d,%d) produced interior [%d,%d)", a.lo, a.hi, i0, i1)
		}
	}

	// End to end: a one-row detector forces the guarded body everywhere.
	sys := testSystem()
	sys.NV = 1
	stack := randomStack(sys, 31)
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	denseAccess(stack).reference(kernelMats(sys), want)
	forRecurrenceKernels(t, func(t *testing.T) {
		dev := device.New("border-rec", 0, 2)
		rec, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, stack, kernelMats(sys), rec); err != nil {
			t.Fatal(err)
		}
		assertSameVolume(t, "the oracle", want, rec)
		if l := dev.Snapshot(); l.InteriorSamples != 0 || l.BorderSamples == 0 {
			t.Errorf("one-row detector: %d interior and %d border samples, want all border", l.InteriorSamples, l.BorderSamples)
		}
	})
}

// Heavily off-centre detectors clip the interior span asymmetrically; the
// stitched border/interior/border row must stay bit-identical to the oracle
// while skipping the provably-zero columns past the detector edge, and
// streaming must stay bit-identical to batch.
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
		denseAccess(stack).reference(mats, want)
		batchDev := device.New("clip", 0, 3)
		batch, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(batchDev, stack, mats, batch); err != nil {
			t.Fatal(err)
		}
		assertSameVolume(t, fmt.Sprintf("the oracle (sigma %+v)", sigma), want, batch)
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
