package phantom

import (
	"math"
	"testing"

	"distfdk/internal/geometry"
)

func testSystem() *geometry.System {
	return &geometry.System{
		DSO: 250, DSD: 350,
		NU: 64, NV: 48, DU: 0.5, DV: 0.5,
		NP: 36,
		NX: 32, NY: 32, NZ: 24, DX: 0.5, DY: 0.5, DZ: 0.5,
	}
}

func TestEllipsoidContains(t *testing.T) {
	e := Ellipsoid{CX: 0.5, A: 0.2, B: 0.1, C: 0.3, Rho: 1}
	if !e.Contains(0.5, 0, 0) {
		t.Error("centre must be inside")
	}
	if !e.Contains(0.69, 0, 0) || e.Contains(0.71, 0, 0) {
		t.Error("X semi-axis boundary wrong")
	}
	if !e.Contains(0.5, 0.09, 0) || e.Contains(0.5, 0.11, 0) {
		t.Error("Y semi-axis boundary wrong")
	}
	if !e.Contains(0.5, 0, 0.29) || e.Contains(0.5, 0, 0.31) {
		t.Error("Z semi-axis boundary wrong")
	}
}

func TestEllipsoidRotation(t *testing.T) {
	// A long thin ellipsoid rotated 90° about Z swaps its X/Y extents.
	e := Ellipsoid{A: 0.5, B: 0.05, C: 0.1, Phi: math.Pi / 2, Rho: 1}
	if e.Contains(0.4, 0, 0) {
		t.Error("rotated ellipsoid should not extend along X")
	}
	if !e.Contains(0, 0.4, 0) {
		t.Error("rotated ellipsoid should extend along Y")
	}
}

func TestSheppLoganDensities(t *testing.T) {
	p := SheppLogan()
	if len(p.Ellipsoids) != 10 {
		t.Fatalf("Shepp–Logan has %d ellipsoids, want 10", len(p.Ellipsoids))
	}
	// Centre of the head: skull (1.0) + brain (−0.8) = 0.2.
	if d := densityOracle(p, 0, 0, 0); math.Abs(d-0.2) > 1e-12 {
		t.Errorf("centre density = %g, want 0.2", d)
	}
	// Outside the skull: 0.
	if d := densityOracle(p, 0.95, 0, 0); d != 0 {
		t.Errorf("outside density = %g, want 0", d)
	}
	// Inside the skull shell only: 1.0.
	if d := densityOracle(p, 0, 0.9, 0); math.Abs(d-1.0) > 1e-12 {
		t.Errorf("skull shell density = %g, want 1.0", d)
	}
	// Inside a ventricle (left ellipsoid at x=−0.22): 0.2 − 0.2 = 0.
	if d := densityOracle(p, -0.22, 0, 0); math.Abs(d-0.0) > 1e-12 {
		t.Errorf("ventricle density = %g, want 0", d)
	}
}

func TestNamedPhantomsAreBounded(t *testing.T) {
	for _, p := range []*Phantom{SheppLogan(), CoffeeBean(), Bumblebee(), Foam(20, 1), UniformSphere(0.5, 1)} {
		if p.Name == "" {
			t.Error("phantom must be named")
		}
		for i := range p.Ellipsoids {
			e := &p.Ellipsoids[i]
			for _, c := range []float64{e.CX + e.A, e.CX - e.A, e.CY + e.B, e.CY - e.B, e.CZ + e.C, e.CZ - e.C} {
				if c < -1.01 || c > 1.01 {
					t.Errorf("%s ellipsoid %d leaves the normalised FOV (extent %g)", p.Name, i, c)
				}
			}
		}
	}
}

func TestFoamDeterministic(t *testing.T) {
	a, b := Foam(10, 42), Foam(10, 42)
	if len(a.Ellipsoids) != 11 {
		t.Fatalf("foam(10) has %d ellipsoids, want 11", len(a.Ellipsoids))
	}
	for i := range a.Ellipsoids {
		if a.Ellipsoids[i] != b.Ellipsoids[i] {
			t.Fatal("Foam is not deterministic for equal seeds")
		}
	}
	c := Foam(10, 43)
	same := true
	for i := range a.Ellipsoids {
		if a.Ellipsoids[i] != c.Ellipsoids[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical foam")
	}
}

func TestVoxelize(t *testing.T) {
	sys := testSystem()
	p := UniformSphere(0.5, 2)
	scale := 6.0 // FOV half-extent 6 mm; sphere radius 3 mm
	vol, err := p.Voxelize(sys, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	ci, cj, ck := sys.NX/2, sys.NY/2, sys.NZ/2
	if got := vol.At(ci, cj, ck); got != 2 {
		t.Fatalf("centre voxel = %g, want 2", got)
	}
	if got := vol.At(0, 0, 0); got != 0 {
		t.Fatalf("corner voxel = %g, want 0", got)
	}
	if _, err := p.Voxelize(sys, -1, 1); err == nil {
		t.Error("expected scale error")
	}
}

// Supersampling must soften boundary voxels: their value lies strictly
// between inside and outside densities, and interior values are unchanged.
func TestVoxelizeSupersampling(t *testing.T) {
	sys := testSystem()
	p := UniformSphere(0.5, 1)
	scale := 6.0
	coarse, _ := p.Voxelize(sys, scale, 1)
	fine, _ := p.Voxelize(sys, scale, 2)
	ci, cj, ck := sys.NX/2, sys.NY/2, sys.NZ/2
	if fine.At(ci, cj, ck) != 1 {
		t.Fatalf("interior voxel changed: %g", fine.At(ci, cj, ck))
	}
	// Find a boundary voxel: scan +X from centre until coarse flips 1→0.
	var frac float32 = -1
	for i := ci; i < sys.NX-1; i++ {
		if coarse.At(i, cj, ck) == 1 && coarse.At(i+1, cj, ck) == 0 {
			frac = fine.At(i+1, cj, ck)
			break
		}
	}
	if frac < 0 || frac > 1 {
		t.Fatalf("no sensible boundary voxel found (frac=%g)", frac)
	}
}
