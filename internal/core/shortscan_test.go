package core

import (
	"math"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/forward"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func TestShortScanGeometryHelpers(t *testing.T) {
	sys := testSystem()
	if sys.IsShortScan() {
		t.Fatal("default full scan misdetected as short scan")
	}
	want := math.Atan2((float64(sys.NU)-1)/2*sys.DU, sys.DSD)
	if got := sys.FanHalfAngle(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FanHalfAngle = %g, want %g", got, want)
	}
	if got := sys.ShortScanRange(); math.Abs(got-(math.Pi+2*want)) > 1e-12 {
		t.Fatalf("ShortScanRange = %g", got)
	}
	sys.AngleRange = sys.ShortScanRange()
	if !sys.IsShortScan() {
		t.Fatal("short scan not detected")
	}
	// Offset detectors enlarge the fan on one side.
	sys.SigmaU = 10
	if sys.FanHalfAngle() <= want {
		t.Fatal("σu offset must enlarge the worst-case fan angle")
	}
}

func TestNewParkerNilForFullScan(t *testing.T) {
	pk, err := NewParker(testSystem())
	if err != nil || pk != nil {
		t.Fatalf("full scan should yield nil Parker, got %v, %v", pk, err)
	}
}

// A Parker-weighted short scan must reconstruct the same densities as the
// full scan: the sphere centre recovers its density and the short-scan
// volume stays close to the full-scan one.
func TestShortScanReconstructionQuality(t *testing.T) {
	ph := phantom.UniformSphere(0.5, 1.5)
	const scale = 5.0

	run := func(angleRange float64, np int) *volume.Volume {
		sys := testSystem()
		sys.NP = np
		sys.AngleRange = angleRange
		st, err := forward.Project(sys, ph, scale, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(sys, 1, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := NewVolumeSink(sys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReconstructSingle(ReconOptions{
			Plan: plan, Source: &projection.MemorySource{Full: st},
			Device: device.New("ss", 0, 2), Sink: sink,
		}); err != nil {
			t.Fatal(err)
		}
		return sink.V
	}

	fullVol := run(0, 72) // full 2π scan
	shortRange := testSystem().ShortScanRange()
	shortVol := run(shortRange, 48)

	ci, cj, ck := fullVol.NX/2, fullVol.NY/2, fullVol.NZ/2
	fullCentre := float64(fullVol.At(ci, cj, ck))
	shortCentre := float64(shortVol.At(ci, cj, ck))
	if math.Abs(shortCentre-1.5)/1.5 > 0.12 {
		t.Fatalf("short-scan centre density %g, want 1.5±12%%", shortCentre)
	}
	if math.Abs(shortCentre-fullCentre)/fullCentre > 0.1 {
		t.Fatalf("short scan centre %g deviates from full scan %g", shortCentre, fullCentre)
	}
	stats, err := volume.Compare(fullVol, shortVol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RMSE > 0.12 {
		t.Fatalf("short-vs-full RMSE %g too high", stats.RMSE)
	}
}

// Without Parker weighting a short scan double-counts half the rays and
// under-counts the rest; the reconstruction must be visibly worse than the
// weighted one. This guards against the weighting being silently skipped.
func TestShortScanWithoutParkerIsWorse(t *testing.T) {
	ph := phantom.UniformSphere(0.5, 1.5)
	const scale = 5.0
	sys := testSystem()
	sys.NP = 48
	// An over-scan (1.5π): half the rays are measured twice, so skipping
	// the redundancy weights double-counts a large angular wedge.
	sys.AngleRange = 1.5 * math.Pi
	st, err := forward.Project(sys, ph, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ph.Voxelize(sys, scale, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Weighted (normal path).
	plan, _ := NewPlan(sys, 1, 1, 4)
	weighted, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: plan, Source: &projection.MemorySource{Full: st},
		Device: device.New("w", 0, 2), Sink: weighted,
	}); err != nil {
		t.Fatal(err)
	}

	// Unweighted: bypass the driver's Parker application by filtering a
	// copy manually and back-projecting it in one launch.
	unweighted, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	raw := &projection.Stack{NU: st.NU, NP: st.NP, NV: st.NV, Data: append([]float32(nil), st.Data...)}
	fdk, err := NewFilter(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fdk.FilterRows(raw.Data, raw.NV*raw.NP, func(i int) int { return i / raw.NP }, 2); err != nil {
		t.Fatal(err)
	}
	backprojectAll(t, device.New("uw", 0, 2), sys, raw, unweighted)

	wStats, _ := volume.Compare(truth, weighted.V)
	uStats, _ := volume.Compare(truth, unweighted)
	if wStats.RMSE >= uStats.RMSE {
		t.Fatalf("Parker weighting did not help: weighted RMSE %g vs unweighted %g", wStats.RMSE, uStats.RMSE)
	}
	if uStats.RMSE < 1.25*wStats.RMSE {
		t.Fatalf("unweighted short scan suspiciously good: %g vs %g", uStats.RMSE, wStats.RMSE)
	}
}
