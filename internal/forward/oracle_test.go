package forward

import (
	"math"
	"testing"

	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
)

// The projector's oracle: the per-point spelling of the ray geometry, which
// evaluates the gantry trig for every pixel and the ellipsoid's trig, frame
// and quadratic for every (ray, ellipsoid) pair. Project and
// ProjectVolumeSubset must return its bytes.

// sourcePos returns the world-space X-ray source position at angle phi,
// honouring the rotation-centre offset σcor.
func sourcePos(sys *geometry.System, phi float64) vec3 {
	sin, cos := math.Sincos(phi)
	// (x,y) = Rᵀ(φ)·(−σcor, −Dso), z = 0.
	return vec3{
		x: float64(-cos*sys.SigmaCOR) - float64(sin*sys.DSO),
		y: float64(sin*sys.SigmaCOR) - float64(cos*sys.DSO),
		z: 0,
	}
}

// pixelPos returns the world-space position of detector pixel (u, v) at
// angle phi.
func pixelPos(sys *geometry.System, phi float64, u, v float64) vec3 {
	sin, cos := math.Sincos(phi)
	cu := float64((float64(sys.NU)-1)/2) + sys.SigmaU
	cv := float64((float64(sys.NV)-1)/2) + sys.SigmaV
	xg := float64((u-cu)*sys.DU) - sys.SigmaCOR
	d := sys.DSD - sys.DSO
	return vec3{
		x: float64(cos*xg) + float64(sin*d),
		y: float64(-sin*xg) + float64(cos*d),
		z: float64((v - cv) * sys.DV),
	}
}

// ellipsoidChord returns the intersection length of the ray p(t)=o+t·dir
// with the given ellipsoid (normalised coordinates scaled to mm by scale).
func ellipsoidChord(e *phantom.Ellipsoid, scale float64, o, dir vec3) float64 {
	sin, cos := math.Sincos(-e.Phi)
	to := vec3{o.x - float64(e.CX*scale), o.y - float64(e.CY*scale), o.z - float64(e.CZ*scale)}
	ro := vec3{float64(cos*to.x) - float64(sin*to.y), float64(sin*to.x) + float64(cos*to.y), to.z}
	rd := vec3{float64(cos*dir.x) - float64(sin*dir.y), float64(sin*dir.x) + float64(cos*dir.y), dir.z}
	a, b, c := e.A*scale, e.B*scale, e.C*scale
	qo := vec3{ro.x / a, ro.y / b, ro.z / c}
	qd := vec3{rd.x / a, rd.y / b, rd.z / c}
	A := qd.dot(qd)
	B := 2 * qo.dot(qd)
	C := qo.dot(qo) - 1
	disc := float64(B*B) - float64(4*A*C)
	if disc <= 0 || A == 0 {
		return 0
	}
	dt := math.Sqrt(disc) / A
	return dt * dir.norm()
}

// projectOracle is Project, one ray and one ellipsoid at a time.
func projectOracle(sys *geometry.System, ph *phantom.Phantom, scale float64) *projection.Stack {
	stack, err := projection.NewStack(sys.NU, sys.NP, sys.NV)
	if err != nil {
		panic(err)
	}
	for p := 0; p < sys.NP; p++ {
		phi := sys.Angle(p)
		src := sourcePos(sys, phi)
		for v := 0; v < sys.NV; v++ {
			row, _ := stack.Row(v, p)
			for u := 0; u < sys.NU; u++ {
				dir := pixelPos(sys, phi, float64(u), float64(v)).sub(src)
				var sum float64
				for i := range ph.Ellipsoids {
					e := &ph.Ellipsoids[i]
					if chord := ellipsoidChord(e, scale, src, dir); chord > 0 {
						sum += float64(e.Rho * chord)
					}
				}
				row[u] = float32(sum)
			}
		}
	}
	return stack
}

// oracleSystems are the geometries the oracle tests cover: the package's
// test system, and an odd-sized short scan with every correction non-zero.
func oracleSystems() map[string]*geometry.System {
	odd := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 37, NV: 29, DU: 0.9, DV: 0.9,
		NP: 13, StartAngle: 0.3,
		NX: 17, NY: 19, NZ: 15, DX: 1.1, DY: 1.1, DZ: 1.1,
		SigmaU: 1.3, SigmaV: -0.8, SigmaCOR: 0.7,
	}
	odd.AngleRange = odd.ShortScanRange()
	return map[string]*geometry.System{"test-system": testSystem(), "odd-short-scan": odd}
}

// edgePhantom's ellipsoids cast shadows that the detector's u and v edges
// cut, at the scale given, so a projector that bounds an ellipsoid's shadow
// is exercised where the bound meets the detector boundary.
func edgePhantom(sys *geometry.System, scale float64) *phantom.Phantom {
	// The detector's half-extents back-projected to the rotation axis, in
	// normalised units.
	hu := float64(sys.NU) / 2 * sys.DU * sys.DSO / sys.DSD / scale
	hv := float64(sys.NV) / 2 * sys.DV * sys.DSO / sys.DSD / scale
	return &phantom.Phantom{Name: "detector-edge", Ellipsoids: []phantom.Ellipsoid{
		{CX: hu, A: 0.2 * hu, B: 0.3 * hu, C: 0.25 * hv, Phi: 0.4, Rho: 1},
		{CZ: hv, A: 0.3 * hu, B: 0.2 * hu, C: 0.15 * hv, Rho: 0.5},
		{CX: -0.5 * hu, CY: 0.5 * hu, CZ: -0.9 * hv, A: 0.6 * hu, B: 0.1 * hu, C: 0.2 * hv, Phi: -1.1, Rho: -0.3},
	}}
}

// tangentPhantom's spheres each graze one ray of the first projection: the
// ray passes at the sphere's radius from its centre, across the detector
// from it, so the sphere's shadow bound in u is exactly that ray's column
// and the oracle's discriminant for the ray is zero give or take rounding.
// A bound any tighter than the sphere drops rays the oracle gives a chord.
func tangentPhantom(sys *geometry.System, scale float64) *phantom.Phantom {
	phi := sys.Angle(0)
	src := sourcePos(sys, phi)
	p := &phantom.Phantom{Name: "tangent"}
	for i := 0; i < 16; i++ {
		u, v := (i+1)*sys.NU/17, (i%4+1)*sys.NV/5
		dir := pixelPos(sys, phi, float64(u), float64(v)).sub(src)
		// The horizontal normal of the ray's column plane, alternately to
		// either side.
		n := vec3{dir.y, -dir.x, 0}
		n = n.scale(float64(1-2*(i%2)) / n.norm())
		r := (0.03 + 0.01*float64(i%3)) * scale
		c := src.add(dir.scale(0.4 + 0.02*float64(i))).add(n.scale(r))
		p.Ellipsoids = append(p.Ellipsoids, phantom.Ellipsoid{
			CX: c.x / scale, CY: c.y / scale, CZ: c.z / scale,
			A: r / scale, B: r / scale, C: r / scale, Rho: 1,
		})
	}
	return p
}

func oraclePhantoms(sys *geometry.System, scale float64) []*phantom.Phantom {
	return []*phantom.Phantom{phantom.SheppLogan(), phantom.CoffeeBean(), phantom.Bumblebee(),
		phantom.Foam(40, 7), edgePhantom(sys, scale), tangentPhantom(sys, scale)}
}

// sameBits fails the test at the first sample whose bits differ.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: sample %d is %g (%#08x), oracle %g (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// Project computes each constant of a projection and of a (projection,
// ellipsoid) pair once, and must still return the oracle's bytes for every
// phantom, geometry and worker count.
func TestProjectMatchesOracle(t *testing.T) {
	for name, sys := range oracleSystems() {
		for _, scale := range []float64{6, 11} {
			for _, ph := range oraclePhantoms(sys, scale) {
				want := projectOracle(sys, ph, scale)
				if ph.Name == "detector-edge" {
					requireEdgeShadows(t, name, sys, want)
				}
				for _, workers := range []int{1, 3} {
					got, err := Project(sys, ph, scale, workers)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, name+"/"+ph.Name, got.Data, want.Data)
				}
			}
		}
	}
}

// requireEdgeShadows fails unless the stack has a non-zero sample in the
// detector's first and last column and in its first and last row.
func requireEdgeShadows(t *testing.T, name string, sys *geometry.System, st *projection.Stack) {
	t.Helper()
	var firstCol, lastCol, firstRow, lastRow bool
	for p := 0; p < sys.NP; p++ {
		for v := 0; v < sys.NV; v++ {
			row, _ := st.Row(v, p)
			for u, x := range row {
				if x != 0 {
					firstCol = firstCol || u == 0
					lastCol = lastCol || u == sys.NU-1
					firstRow = firstRow || v == 0
					lastRow = lastRow || v == sys.NV-1
				}
			}
		}
	}
	if !(firstCol && lastCol && firstRow && lastRow) {
		t.Fatalf("%s: the edge phantom's shadow reaches column 0 %v, column NU−1 %v, row 0 %v, row NV−1 %v",
			name, firstCol, lastCol, firstRow, lastRow)
	}
}

// ProjectVolumeSubset shares Project's per-projection ray frame; it must
// integrate along the oracle's rays.
func TestProjectVolumeMatchesOracle(t *testing.T) {
	for name, sys := range oracleSystems() {
		sys := *sys
		sys.NU, sys.NV = sys.NU/2+1, sys.NV/2+1
		sys.DU, sys.DV = 2*sys.DU, 2*sys.DV
		vol, err := phantom.SheppLogan().Voxelize(&sys, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps := []int{sys.NP - 1, 0, 2}
		got, err := ProjectVolumeSubset(&sys, vol, 0, 2, ps)
		if err != nil {
			t.Fatal(err)
		}
		step := math.Min(sys.DX, math.Min(sys.DY, sys.DZ)) / 2
		want := make([]float32, 0, len(got.Data))
		for v := 0; v < sys.NV; v++ {
			for _, p := range ps {
				phi := sys.Angle(p)
				for u := 0; u < sys.NU; u++ {
					want = append(want, march(&sys, vol, sourcePos(&sys, phi), pixelPos(&sys, phi, float64(u), float64(v)), step))
				}
			}
		}
		sameBits(t, name, got.Data, want)
	}
}
