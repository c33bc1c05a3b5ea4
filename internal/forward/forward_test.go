package forward

import (
	"math"
	"testing"

	"distfdk/internal/dataset"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
)

func testSystem() *geometry.System {
	return &geometry.System{
		DSO: 250, DSD: 350,
		NU: 64, NV: 48, DU: 0.5, DV: 0.5,
		NP: 24,
		NX: 32, NY: 32, NZ: 24, DX: 0.5, DY: 0.5, DZ: 0.5,
	}
}

const scale = 6.0 // mm half-extent of the normalised FOV in these tests

func TestSourceAndPixelGeometry(t *testing.T) {
	sys := testSystem()
	// At φ=0 with no offsets the source is at (0,−Dso,0) and the central
	// detector pixel at (0, Dsd−Dso, 0).
	src := sourcePos(sys, 0)
	if math.Abs(src.x) > 1e-12 || math.Abs(src.y+sys.DSO) > 1e-12 || src.z != 0 {
		t.Fatalf("source at φ=0: %+v", src)
	}
	cu := (float64(sys.NU) - 1) / 2
	cv := (float64(sys.NV) - 1) / 2
	px := pixelPos(sys, 0, cu, cv)
	if math.Abs(px.x) > 1e-12 || math.Abs(px.y-(sys.DSD-sys.DSO)) > 1e-12 || math.Abs(px.z) > 1e-12 {
		t.Fatalf("central pixel at φ=0: %+v", px)
	}
	// The source orbit has radius √(Dso²+σcor²) for any φ.
	sys.SigmaCOR = 1.5
	for _, phi := range []float64{0, 1, 2.5, 4} {
		s := sourcePos(sys, phi)
		r := math.Hypot(s.x, s.y)
		want := math.Hypot(sys.DSO, sys.SigmaCOR)
		if math.Abs(r-want) > 1e-9 {
			t.Fatalf("φ=%g: source radius %g, want %g", phi, r, want)
		}
	}
}

// The central ray through a centred sphere has chord 2R, so the central
// detector pixel must read density·2R·scale mm.
func TestCentralRayThroughSphere(t *testing.T) {
	sys := testSystem()
	ph := phantom.UniformSphere(0.5, 1.5)
	stack, err := Project(sys, ph, scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	// NU/NV even: the exact centre falls between pixels; sample the four
	// central pixels and use their mean.
	u0, v0 := sys.NU/2-1, sys.NV/2-1
	var got float64
	for _, uv := range [][2]int{{u0, v0}, {u0 + 1, v0}, {u0, v0 + 1}, {u0 + 1, v0 + 1}} {
		got += float64(stack.At(uv[1], 0, uv[0]))
	}
	got /= 4
	want := 1.5 * 2 * 0.5 * scale
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("central integral = %g, want %g", got, want)
	}
}

// Forward projections of a centred sphere must be symmetric in u about the
// detector centre and identical across angles.
func TestSphereProjectionSymmetry(t *testing.T) {
	sys := testSystem()
	ph := phantom.UniformSphere(0.4, 1)
	stack, err := Project(sys, ph, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := sys.NV / 2
	row0, _ := stack.Row(v, 0)
	for u := 0; u < sys.NU/2; u++ {
		m := sys.NU - 1 - u
		if math.Abs(float64(row0[u]-row0[m])) > 1e-4 {
			t.Fatalf("u-symmetry broken at %d: %g vs %g", u, row0[u], row0[m])
		}
	}
	for p := 1; p < sys.NP; p += 5 {
		rowP, _ := stack.Row(v, p)
		for u := 0; u < sys.NU; u += 7 {
			if math.Abs(float64(row0[u]-rowP[u])) > 1e-4 {
				t.Fatalf("angle invariance broken at p=%d u=%d: %g vs %g", p, u, row0[u], rowP[u])
			}
		}
	}
}

// Consistency between the forward projector and the back-projection
// geometry: a point-like ellipsoid placed at a voxel centre must project to
// the (u,v) that the projection matrix predicts for that voxel, at every
// angle. This is the contract that makes reconstruction converge.
func TestForwardMatchesProjectionMatrix(t *testing.T) {
	sys := testSystem()
	sys.SigmaU, sys.SigmaV, sys.SigmaCOR = 2, -1.25, 0.4 // stress correction path
	i, j, k := 22, 9, 17
	x, y, z := sys.VoxelWorld(i, j, k)
	// The blob must be a few detector samples wide or rays can straddle
	// it: 0.05·6 mm = 0.3 mm radius ≈ 1.7 detector pixels at this
	// magnification.
	ph := &phantom.Phantom{Name: "point", Ellipsoids: []phantom.Ellipsoid{{
		CX: x / scale, CY: y / scale, CZ: z / scale,
		A: 0.05, B: 0.05, C: 0.05, Rho: 1,
	}}}
	stack, err := Project(sys, ph, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < sys.NP; p += 3 {
		m := sys.Matrix(sys.Angle(p))
		uPred, vPred, _ := m.Project(float64(i), float64(j), float64(k))
		// Centroid of the blob in this projection.
		var su, sv, sw float64
		for v := 0; v < sys.NV; v++ {
			row, _ := stack.Row(v, p)
			for u, val := range row {
				w := float64(val)
				su += w * float64(u)
				sv += w * float64(v)
				sw += w
			}
		}
		if sw == 0 {
			t.Fatalf("p=%d: blob projects off-detector", p)
		}
		gu, gv := su/sw, sv/sw
		if math.Abs(gu-uPred) > 0.6 || math.Abs(gv-vPred) > 0.6 {
			t.Fatalf("p=%d: centroid (%.2f,%.2f), matrix predicts (%.2f,%.2f)", p, gu, gv, uPred, vPred)
		}
	}
}

// The numeric volume projector must agree with the analytic integrals for a
// smooth-enough object.
func TestProjectVolumeMatchesAnalytic(t *testing.T) {
	sys := testSystem()
	ph := phantom.UniformSphere(0.5, 1)
	analytic, err := Project(sys, ph, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := ph.Voxelize(sys, scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, sys.NP)
	for i := range all {
		all[i] = i
	}
	numeric, err := projection.NewStack(sys.NU, sys.NP, sys.NV)
	if err != nil {
		t.Fatal(err)
	}
	if err := ProjectVolumeSubset(sys, vol, 0, 0, all, numeric); err != nil {
		t.Fatal(err)
	}
	// Compare a central row at a few angles. Tangent rays graze the
	// voxelisation staircase for millimetres, so individual edge pixels
	// may differ by ~1; the bulk agreement is what matters.
	v := sys.NV / 2
	for _, p := range []int{0, 7, 15} {
		ra, _ := analytic.Row(v, p)
		rn, _ := numeric.Row(v, p)
		var sumAbs float64
		for u := 0; u < sys.NU; u++ {
			d := math.Abs(float64(ra[u] - rn[u]))
			sumAbs += d
			if d > 1.2 {
				t.Fatalf("p=%d u=%d: analytic %g vs numeric %g", p, u, ra[u], rn[u])
			}
		}
		if mean := sumAbs / float64(sys.NU); mean > 0.15 {
			t.Fatalf("p=%d: mean |analytic−numeric| = %g, want < 0.15", p, mean)
		}
	}
}

func TestProjectValidation(t *testing.T) {
	sys := testSystem()
	if _, err := Project(sys, phantom.SheppLogan(), 0, 1); err == nil {
		t.Error("expected scale error")
	}
	bad := *sys
	bad.DSO = 0
	if _, err := Project(&bad, phantom.SheppLogan(), scale, 1); err == nil {
		t.Error("expected geometry error")
	}
	vol, _ := phantom.UniformSphere(0.3, 1).Voxelize(sys, scale, 1)
	mismatch := *sys
	mismatch.NX = 16
	short, _ := projection.NewStack(sys.NU, 1, sys.NV)
	if err := ProjectVolumeSubset(&mismatch, vol, 0, 1, []int{0}, short); err == nil {
		t.Error("expected grid mismatch error")
	}
	if err := ProjectVolumeSubset(sys, vol, 0, 1, []int{0, 1}, short); err == nil {
		t.Error("expected a stack too small for the subset to be refused")
	}
}

func TestBoxClip(t *testing.T) {
	// Ray along +X through the box.
	t0, t1, ok := boxClip(vec3{-10, 0, 0}, vec3{1, 0, 0}, 2, 3, 4)
	if !ok || math.Abs(t0-8) > 1e-12 || math.Abs(t1-12) > 1e-12 {
		t.Fatalf("boxClip along X = %g,%g,%v", t0, t1, ok)
	}
	// Ray missing the box.
	if _, _, ok := boxClip(vec3{-10, 10, 0}, vec3{1, 0, 0}, 2, 3, 4); ok {
		t.Fatal("ray should miss the box")
	}
	// Axis-parallel ray inside slab bounds.
	if _, _, ok := boxClip(vec3{0, -10, 0}, vec3{0, 1, 0}, 2, 3, 4); !ok {
		t.Fatal("axis-parallel ray should hit")
	}
	// Degenerate direction component outside slab.
	if _, _, ok := boxClip(vec3{5, -10, 0}, vec3{0, 1, 0}, 2, 3, 4); ok {
		t.Fatal("parallel ray outside slab should miss")
	}
}

func TestToCountsRoundTrip(t *testing.T) {
	sys := testSystem()
	sys.NP = 4
	ph := phantom.UniformSphere(0.4, 0.3)
	stack, err := Project(sys, ph, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), stack.Data...)
	beer := &filter.Beer{Dark: 50, Blank: 65536}
	if err := ToCounts(stack, beer); err != nil {
		t.Fatal(err)
	}
	// Counts must differ from integrals and invert back through Apply.
	if stack.Data[0] == want[0] {
		t.Fatal("ToCounts did not transform data")
	}
	if err := beer.Apply(stack.Data); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(float64(stack.Data[i]-want[i])) > 1e-3*(1+math.Abs(float64(want[i]))) {
			t.Fatalf("sample %d: %g, want %g", i, stack.Data[i], want[i])
		}
	}
}

// BenchmarkProjectSheppLogan synthesises the repository benchmark's
// single-kernel input (tomo_00030 ÷8, 96³ grid) on one worker, as its
// set-up does.
func BenchmarkProjectSheppLogan(b *testing.B) {
	ds, err := dataset.ByName("tomo_00030")
	if err == nil {
		ds, err = ds.Scaled(8)
	}
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ds.System(96)
	if err != nil {
		b.Fatal(err)
	}
	ph := ds.Phantom()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Project(sys, ph, ds.FOV/2, 1); err != nil {
			b.Fatal(err)
		}
	}
}
