// Package forward synthesises cone-beam projection data: exact analytic
// line integrals through ellipsoid phantoms (the reference methodology the
// paper uses for its numerical assessment) and a ray-driven numeric
// projector for arbitrary voxel volumes. It also converts line integrals to
// raw photon counts so the Beer–Lambert preprocessing path (Equation 1) can
// be exercised end to end.
package forward

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

type vec3 struct{ x, y, z float64 }

// The analytic projector's line integrals must not depend on the host, so
// every product that feeds an add or a subtract in it is written
// float64(a*b): the Go specification makes the conversion round, which keeps
// a target with fused multiply-adds from contracting it (make fuse-lint
// checks the arm64 listing).

func (a vec3) sub(b vec3) vec3 { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) dot(b vec3) float64 {
	return float64(a.x*b.x) + float64(a.y*b.y) + float64(a.z*b.z)
}
func (a vec3) norm() float64        { return math.Sqrt(a.dot(a)) }
func (a vec3) scale(f float64) vec3 { return vec3{a.x * f, a.y * f, a.z * f} }
func (a vec3) add(b vec3) vec3      { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }

// rayFrame is what every ray of one projection shares: the gantry
// rotation's trig, the source, and the detector's corrected principal point.
type rayFrame struct {
	sys      *geometry.System
	sin, cos float64
	// src is the X-ray source, honouring the rotation-centre offset σcor.
	src    vec3
	cu, cv float64
	// d is Dsd − Dso, the detector's depth beyond the rotation axis.
	d float64
}

func newRayFrame(sys *geometry.System, phi float64) rayFrame {
	sin, cos := math.Sincos(phi)
	cu, cv := principalPoint(sys)
	return rayFrame{
		sys: sys, sin: sin, cos: cos,
		// The source is the centre of projection of the gantry transform:
		// (x,y) = Rᵀ(φ)·(−σcor, −Dso), z = 0.
		src: vec3{
			x: float64(-cos*sys.SigmaCOR) - float64(sin*sys.DSO),
			y: float64(sin*sys.SigmaCOR) - float64(cos*sys.DSO),
		},
		cu: cu, cv: cv,
		d: sys.DSD - sys.DSO,
	}
}

// principalPoint returns the detector's corrected principal point in
// (fractional) columns and rows.
func principalPoint(sys *geometry.System) (cu, cv float64) {
	// A halving compiles to a product by 0.5.
	return float64((float64(sys.NU)-1)/2) + sys.SigmaU, float64((float64(sys.NV)-1)/2) + sys.SigmaV
}

// planeNorms holds √(Dsd² + s²) for every detector column (u) and row (v),
// where s is its offset from the principal point: the norm of the normal of
// the plane through the source and that column or row, which shadow divides
// a distance by. It depends on the geometry alone, so Project tabulates it
// once.
type planeNorms struct{ u, v []float64 }

func newPlaneNorms(sys *geometry.System) *planeNorms {
	cu, cv := principalPoint(sys)
	axis := func(n int, centre, pitch float64) []float64 {
		norms := make([]float64, n)
		for i := range norms {
			norms[i] = math.Hypot(sys.DSD, (float64(i)-centre)*pitch)
		}
		return norms
	}
	return &planeNorms{u: axis(sys.NU, cu, sys.DU), v: axis(sys.NV, cv, sys.DV)}
}

// pixel returns the world-space position of detector pixel (u, v): the
// point at gantry depth Dsd with transverse coordinates given by the
// pixel's offset from the principal point.
func (f *rayFrame) pixel(u, v float64) vec3 {
	xg := float64((u-f.cu)*f.sys.DU) - f.sys.SigmaCOR
	return vec3{
		x: float64(f.cos*xg) + float64(f.sin*f.d),
		y: float64(-f.sin*xg) + float64(f.cos*f.d),
		z: float64((v - f.cv) * f.sys.DV),
	}
}

// shadow returns the detector columns [u0, u1] and rows [v0, v1] whose rays
// can come within r of world point c (empty ranges have u1 < u0). Every ray
// of column u lies in one plane through the source, every ray of row v in
// another; a ray in a plane farther than r from c stays farther than r. pn
// is the geometry's planeNorms.
func (f *rayFrame) shadow(c vec3, r float64, pn *planeNorms) (u0, u1, v0, v1 int) {
	sys := f.sys
	// c relative to the source in the gantry frame: along the detector's
	// u axis (t), along the central ray (w), and z.
	ct := float64(f.cos*c.x) - float64(f.sin*c.y) + sys.SigmaCOR
	cw := float64(f.sin*c.x) + float64(f.cos*c.y) + sys.DSO
	// A pixel at offset s from the principal point along one detector
	// axis sees c in a plane whose distance from c is |Dsd·cc − s·cw| /
	// √(Dsd² + s²), where cc is c's coordinate along that axis.
	span := func(norms []float64, centre, pitch, cc float64) (lo, hi int) {
		lo, hi = len(norms), -1
		for i, norm := range norms {
			s := (float64(i) - centre) * pitch
			if math.Abs(float64(sys.DSD*cc)-float64(s*cw)) <= r*norm {
				lo, hi = min(lo, i), i
			}
		}
		return lo, hi
	}
	u0, u1 = span(pn.u, f.cu, sys.DU, ct)
	v0, v1 = span(pn.v, f.cv, sys.DV, c.z)
	return u0, u1, v0, v1
}

// chordFrame is one ellipsoid seen from one source position: every term of
// the ray–ellipsoid quadratic |qo + t·qd|² = 1 that does not depend on the
// ray's direction, and the detector rectangle outside which no ray meets
// the ellipsoid.
type chordFrame struct {
	// sin, cos rotate about Z by −Phi; a, b, c are the semi-axes in mm.
	sin, cos, a, b, c float64
	// qo is the source in the ellipsoid's unit-sphere frame, C = qo·qo − 1.
	qo             vec3
	C              float64
	rho            float64
	u0, u1, v0, v1 int
}

func newChordFrame(e *phantom.Ellipsoid, scale float64, f *rayFrame, pn *planeNorms) chordFrame {
	sin, cos := math.Sincos(-e.Phi)
	// Translate to the ellipsoid frame and rotate about Z by −Phi.
	centre := vec3{float64(e.CX * scale), float64(e.CY * scale), float64(e.CZ * scale)}
	to := f.src.sub(centre)
	ro := vec3{float64(cos*to.x) - float64(sin*to.y), float64(sin*to.x) + float64(cos*to.y), to.z}
	// Scale axes to the unit sphere.
	a, b, c := e.A*scale, e.B*scale, e.C*scale
	qo := vec3{ro.x / a, ro.y / b, ro.z / c}
	cf := chordFrame{sin: sin, cos: cos, a: a, b: b, c: c, qo: qo, C: qo.dot(qo) - 1, rho: e.Rho}
	// A ray that misses the ellipsoid's bounding ball by a relative margin
	// slack stays outside 1 + slack in the unit-sphere frame, so its
	// discriminant is below −8·slack·|qd|². Rounding moves the computed one
	// by tens of ε·|qo|²·|qd|² and the computed ray by a few ε·|qo|: slack
	// exceeds both by three orders of magnitude or more, so every ray
	// outside the rectangle computes a chord of 0.
	slack := 1e-6 + float64(1e-12*(cf.C+1))
	r := max(a, b, c) * (1 + slack)
	cf.u0, cf.u1, cf.v0, cf.v1 = f.shadow(centre, r, pn)
	return cf
}

// chord returns the intersection length of the ray o+t·dir with the
// ellipsoid, where o is the frame's source and n = |dir|.
func (f *chordFrame) chord(dir vec3, n float64) float64 {
	rd := vec3{float64(f.cos*dir.x) - float64(f.sin*dir.y), float64(f.sin*dir.x) + float64(f.cos*dir.y), dir.z}
	qd := vec3{rd.x / f.a, rd.y / f.b, rd.z / f.c}
	A := qd.dot(qd)
	B := 2 * f.qo.dot(qd)
	disc := float64(B*B) - float64(4*A*f.C)
	if disc <= 0 || A == 0 {
		return 0
	}
	return math.Sqrt(disc) / A * n // (t2 − t1)·|dir|
}

// Project computes exact line integrals of the phantom for every detector
// pixel and acquisition angle, returning a full kernel-layout stack. scale
// maps the phantom's normalised [−1,1] coordinates to millimetres; workers
// ≤ 0 uses GOMAXPROCS.
func Project(sys *geometry.System, ph *phantom.Phantom, scale float64, workers int) (*projection.Stack, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("forward: scale %g must be positive", scale)
	}
	stack, err := projection.NewStack(sys.NU, sys.NP, sys.NV)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pn := newPlaneNorms(sys)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chords := make([]chordFrame, len(ph.Ellipsoids))
			rowChords := make([]*chordFrame, 0, len(chords))
			for p := w; p < sys.NP; p += workers {
				projectAngle(sys, stack, p, ph, scale, pn, chords, rowChords)
			}
		}(w)
	}
	wg.Wait()
	return stack, nil
}

// projectAngle fills projection p of stack with the phantom's line
// integrals; pn is the geometry's planeNorms, chords and rowChords are
// scratch of one entry per ellipsoid.
// Each pixel sums the chords of the ellipsoids its ray meets in phantom
// order, from zero, whichever ellipsoids the shadow rectangles leave out.
func projectAngle(sys *geometry.System, stack *projection.Stack, p int, ph *phantom.Phantom, scale float64,
	pn *planeNorms, chords []chordFrame, rowChords []*chordFrame) {
	f := newRayFrame(sys, sys.Angle(p))
	for i := range chords {
		chords[i] = newChordFrame(&ph.Ellipsoids[i], scale, &f, pn)
	}
	for v := 0; v < sys.NV; v++ {
		row, _ := stack.Row(v, p)
		rowChords = rowChords[:0]
		for i := range chords {
			if c := &chords[i]; c.v0 <= v && v <= c.v1 {
				rowChords = append(rowChords, c)
			}
		}
		for u := 0; u < sys.NU; u++ {
			dir := f.pixel(float64(u), float64(v)).sub(f.src)
			n := dir.norm()
			var sum float64
			for _, c := range rowChords {
				if u < c.u0 || u > c.u1 {
					continue
				}
				if chord := c.chord(dir, n); chord > 0 {
					sum += float64(c.rho * chord)
				}
			}
			row[u] = float32(sum)
		}
	}
}

// ProjectVolume numerically integrates a voxel volume along each detector
// ray with trilinear interpolation at the given step (mm; ≤ 0 picks half
// the smallest voxel pitch). It is the generic substrate for phantoms that
// are not ellipsoid superpositions, and the A·x operator of the iterative
// algorithms.
func ProjectVolume(sys *geometry.System, vol *volume.Volume, step float64, workers int) (*projection.Stack, error) {
	all := make([]int, sys.NP)
	for i := range all {
		all[i] = i
	}
	return ProjectVolumeSubset(sys, vol, step, workers, all)
}

// ProjectVolumeSubset integrates the volume along the rays of the listed
// projection indices only; the returned stack holds len(ps) projections in
// list order. Ordered-subset iterative methods use it to evaluate A_s·x
// for one angular subset at a time.
func ProjectVolumeSubset(sys *geometry.System, vol *volume.Volume, step float64, workers int, ps []int) (*projection.Stack, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if vol.NX != sys.NX || vol.NY != sys.NY || vol.NZ != sys.NZ {
		return nil, fmt.Errorf("forward: volume %s does not match system grid %dx%dx%d",
			vol.ShapeString(), sys.NX, sys.NY, sys.NZ)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("forward: empty projection subset")
	}
	for _, p := range ps {
		if p < 0 || p >= sys.NP {
			return nil, fmt.Errorf("forward: projection %d outside [0,%d)", p, sys.NP)
		}
	}
	if step <= 0 {
		step = math.Min(sys.DX, math.Min(sys.DY, sys.DZ)) / 2
	}
	stack, err := projection.NewStack(sys.NU, len(ps), sys.NV)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := w; idx < len(ps); idx += workers {
				f := newRayFrame(sys, sys.Angle(ps[idx]))
				for v := 0; v < sys.NV; v++ {
					row, _ := stack.Row(v, idx)
					for u := 0; u < sys.NU; u++ {
						row[u] = march(sys, vol, f.src, f.pixel(float64(u), float64(v)), step)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return stack, nil
}

// march integrates the volume along the ray from src to px by the midpoint
// rule at the given step.
func march(sys *geometry.System, vol *volume.Volume, src, px vec3, step float64) float32 {
	// Volume bounding box in world mm (voxel centres padded by half a
	// voxel so boundary voxels integrate correctly).
	hx := float64(sys.NX) / 2 * sys.DX
	hy := float64(sys.NY) / 2 * sys.DY
	hz := float64(sys.NZ) / 2 * sys.DZ
	dir := px.sub(src)
	unit := dir.scale(1 / dir.norm())
	t0, t1, ok := boxClip(src, unit, hx, hy, hz)
	if !ok {
		return 0
	}
	var sum float64
	for t := t0 + step/2; t < t1; t += step {
		sum += trilinear(sys, vol, src.add(unit.scale(t)))
	}
	return float32(sum * step)
}

// boxClip intersects the ray o+t·d (d unit) with the axis-aligned box
// [−hx,hx]×[−hy,hy]×[−hz,hz] and returns the entry/exit parameters.
func boxClip(o, d vec3, hx, hy, hz float64) (t0, t1 float64, ok bool) {
	t0, t1 = 0, math.Inf(1)
	clip := func(oc, dc, h float64) bool {
		if dc == 0 {
			return oc >= -h && oc <= h
		}
		ta := (-h - oc) / dc
		tb := (h - oc) / dc
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		return t0 < t1
	}
	if !clip(o.x, d.x, hx) || !clip(o.y, d.y, hy) || !clip(o.z, d.z, hz) {
		return 0, 0, false
	}
	return t0, t1, true
}

// trilinear samples the volume at world point pt with trilinear
// interpolation; points outside the grid contribute zero.
func trilinear(sys *geometry.System, vol *volume.Volume, pt vec3) float64 {
	fi := pt.x/sys.DX + (float64(sys.NX)-1)/2
	fj := pt.y/sys.DY + (float64(sys.NY)-1)/2
	fk := pt.z/sys.DZ + (float64(sys.NZ)-1)/2
	i0 := int(math.Floor(fi))
	j0 := int(math.Floor(fj))
	k0 := int(math.Floor(fk))
	di := fi - float64(i0)
	dj := fj - float64(j0)
	dk := fk - float64(k0)
	var acc float64
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				i, j, k := i0+dx, j0+dy, k0+dz
				if i < 0 || i >= vol.NX || j < 0 || j >= vol.NY || k < 0 || k >= vol.NZ {
					continue
				}
				wx := 1 - di
				if dx == 1 {
					wx = di
				}
				wy := 1 - dj
				if dy == 1 {
					wy = dj
				}
				wz := 1 - dk
				if dz == 1 {
					wz = dk
				}
				acc += wx * wy * wz * float64(vol.At(i, j, k))
			}
		}
	}
	return acc
}

// ToCounts converts a stack of line integrals to raw photon counts in place
// using the inverse Beer–Lambert map, so preprocessing (Equation 1) can be
// tested against synthetic acquisitions. Beer.Counts reads only the scalar
// levels, so a Beer carrying per-pixel frames is refused and the stack left
// alone: Beer.Apply would invert the counts through another calibration.
func ToCounts(stack *projection.Stack, beer *filter.Beer) error {
	if beer.DarkFrame != nil || beer.BlankFrame != nil {
		return fmt.Errorf("forward: counts are synthesised with scalar dark/blank levels, not per-pixel frames")
	}
	for i, p := range stack.Data {
		stack.Data[i] = float32(beer.Counts(float64(p)))
	}
	return nil
}
