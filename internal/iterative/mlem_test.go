package iterative

import (
	"math"
	"strings"
	"testing"

	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func TestMLEMValidation(t *testing.T) {
	sys := testSystem()
	st := measuredStack(t, sys, phantom.UniformSphere(0.4, 1))
	if _, err := ReconstructMLEM(sys, st, Options{Iterations: 0}); err == nil {
		t.Error("expected iterations error")
	}
	neg, _ := projection.NewStack(sys.NU, sys.NP, sys.NV)
	neg.Data[0] = -1
	if _, err := ReconstructMLEM(sys, neg, Options{Iterations: 1}); err == nil {
		t.Error("expected negativity error")
	}
	badInit, _ := volume.New(sys.NX, sys.NY, sys.NZ) // zeros: not positive
	if _, err := ReconstructMLEM(sys, st, Options{Iterations: 1, Initial: badInit}); err == nil {
		t.Error("expected positive-initial error")
	}
	if _, err := ReconstructMLEM(sys, st, Options{Iterations: 1, Subsets: 1000}); err == nil {
		t.Error("expected subsets error")
	}
	// Shape errors name both shapes, as SIRT's do; a wrong shape is
	// reported before the content of the stack or the image.
	bad, _ := projection.NewStack(8, sys.NP, sys.NV)
	bad.Data[0] = -1
	if _, err := ReconstructMLEM(sys, bad, Options{Iterations: 1}); err == nil || !strings.Contains(err.Error(), "stack 8x16x30@0,0 does not match system 36x16x30") {
		t.Errorf("mismatched stack: %v", err)
	}
	wrong, _ := volume.New(4, 4, 4)
	if _, err := ReconstructMLEM(sys, st, Options{Iterations: 1, Initial: wrong}); err == nil || !strings.Contains(err.Error(), wrong.ShapeString()) {
		t.Errorf("mismatched initial volume: %v", err)
	}
	zero, _ := projection.NewStack(sys.NU, sys.NP, sys.NV)
	res, err := ReconstructMLEM(sys, zero, Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Volume.Data {
		if x != 0 {
			t.Fatal("zero data must reconstruct to zero")
		}
	}
}

func TestMLEMConvergesAndStaysPositive(t *testing.T) {
	sys := testSystem()
	ph := phantom.UniformSphere(0.5, 1.5)
	st := measuredStack(t, sys, ph)
	res, err := ReconstructMLEM(sys, st, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Residuals); i++ {
		if res.Residuals[i] > res.Residuals[i-1]*1.001 {
			t.Fatalf("MLEM residuals increased: %v", res.Residuals)
		}
	}
	for i, x := range res.Volume.Data {
		if x < 0 {
			t.Fatalf("voxel %d negative: %g", i, x)
		}
	}
	got := float64(res.Volume.At(sys.NX/2, sys.NY/2, sys.NZ/2))
	if math.Abs(got-1.5)/1.5 > 0.2 {
		t.Fatalf("centre density %g, want 1.5±20%%", got)
	}
}

// OSEM accelerates MLEM the same way OS-SART accelerates SIRT.
func TestOSEMAccelerates(t *testing.T) {
	sys := testSystem()
	st := measuredStack(t, sys, phantom.SheppLogan())
	// Shepp–Logan has negative-contrast structures but its projections
	// stay nonnegative (density never drops below zero).
	const iters = 3
	mlem, err := ReconstructMLEM(sys, st, Options{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	osem, err := ReconstructMLEM(sys, st, Options{Iterations: iters, Subsets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if osem.Residuals[iters-1] >= mlem.Residuals[iters-1] {
		t.Fatalf("OSEM residual %g not below MLEM %g", osem.Residuals[iters-1], mlem.Residuals[iters-1])
	}
}

func TestMLEMCallbackStops(t *testing.T) {
	sys := testSystem()
	st := measuredStack(t, sys, phantom.UniformSphere(0.4, 1))
	res, err := ReconstructMLEM(sys, st, Options{
		Iterations: 10,
		Callback:   func(it int, rel float64) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations %d, want 1", res.Iterations)
	}
}
