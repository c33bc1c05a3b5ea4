// Package phantom provides analytic test objects for validating the
// reconstruction pipeline. The paper's numerical assessment (Section 6.1)
// forward-projects the Shepp–Logan digital phantom and compares the
// reconstruction against a reference; this package supplies that phantom
// plus synthetic stand-ins for the paper's real-world scans (coffee bean,
// bumblebee) whose data cannot be redistributed.
//
// Every phantom is a superposition of ellipsoids, which makes both exact
// voxelisation and exact cone-beam line integrals available in closed form.
package phantom

import (
	"fmt"
	"math"
	"math/rand"

	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// Ellipsoid is an axis-scaled, Z-rotated ellipsoid with additive density.
// Geometry is expressed in normalised object coordinates: the reconstructed
// field of view spans [−1, 1] in every axis, and Scale (mm) maps the
// normalised phantom onto a physical acquisition.
type Ellipsoid struct {
	// CX, CY, CZ is the centre.
	CX, CY, CZ float64
	// A, B, C are the semi-axes along (rotated) X, Y and Z.
	A, B, C float64
	// Phi is the rotation about the Z axis in radians.
	Phi float64
	// Rho is the additive density contribution.
	Rho float64
}

// Contains reports whether normalised point (x,y,z) lies inside: whether
// qx²+qy²+qz² ≤ 1, where q is the point in the ellipsoid's unit-sphere frame.
func (e *Ellipsoid) Contains(x, y, z float64) bool {
	p := e.prepare()
	return p.inside(x, p.row(y), p.zTerm(z))
}

// The voxelisation must not depend on the host, so every product that feeds
// an add or a subtract in this file is written float64(a*b): the Go
// specification makes the conversion round, which keeps a target with fused
// multiply-adds from contracting it (make fuse-lint checks the arm64
// listing). The sub-row solve (span) is exempt: it decides no byte.

// prepared is an ellipsoid with its rotation's trig evaluated once. Contains
// and Voxelize evaluate the same terms in the same order through it, a
// point's z term once per slice and its y terms once per row.
type prepared struct {
	*Ellipsoid
	sin, cos float64 // rotation about Z by −Phi
}

func (e *Ellipsoid) prepare() prepared {
	sin, cos := math.Sincos(-e.Phi)
	return prepared{e, sin, cos}
}

// zTerm returns qz² at height z. No point of a slice with qz² > 1 is inside:
// qx²+qy² ≥ 0, and a rounded sum of non-negative terms is no smaller than
// either of them.
func (p *prepared) zTerm(z float64) float64 {
	qz := (z - p.CZ) / p.C
	return float64(qz * qz)
}

// rowTerms are the y offset's parts of the rotated x and y at height y.
type rowTerms struct{ sinDY, cosDY float64 }

func (p *prepared) row(y float64) rowTerms {
	dy := y - p.CY
	return rowTerms{float64(p.sin * dy), float64(p.cos * dy)}
}

// inside reports whether the point at x, with its row terms r and z term
// qz2, lies inside.
func (p *prepared) inside(x float64, r rowTerms, qz2 float64) bool {
	dx := x - p.CX
	rx := float64(p.cos*dx) - r.sinDY
	ry := float64(p.sin*dx) + r.cosDY
	qx, qy := rx/p.A, ry/p.B
	return float64(qx*qx)+float64(qy*qy)+qz2 <= 1
}

// Phantom is a named superposition of ellipsoids.
type Phantom struct {
	Name       string
	Ellipsoids []Ellipsoid
}

// SheppLogan returns the standard 3-D Shepp–Logan head phantom (the
// Kak–Slaney variant with high-contrast densities, so reconstructions are
// visually inspectable like the paper's Figure 8).
func SheppLogan() *Phantom {
	deg := math.Pi / 180
	return &Phantom{
		Name: "shepp-logan",
		Ellipsoids: []Ellipsoid{
			{0, 0, 0, 0.69, 0.92, 0.81, 0, 1.0},
			{0, -0.0184, 0, 0.6624, 0.874, 0.78, 0, -0.8},
			{0.22, 0, 0, 0.11, 0.31, 0.22, -18 * deg, -0.2},
			{-0.22, 0, 0, 0.16, 0.41, 0.28, 18 * deg, -0.2},
			{0, 0.35, -0.15, 0.21, 0.25, 0.41, 0, 0.1},
			{0, 0.1, 0.25, 0.046, 0.046, 0.05, 0, 0.1},
			{0, -0.1, 0.25, 0.046, 0.046, 0.05, 0, 0.1},
			{-0.08, -0.605, 0, 0.046, 0.023, 0.05, 0, 0.1},
			{0, -0.605, 0, 0.023, 0.023, 0.02, 0, 0.1},
			{0.06, -0.605, 0, 0.023, 0.046, 0.02, 0, 0.1},
		},
	}
}

// UniformSphere returns a single centred sphere of the given normalised
// radius and density — the simplest object for absolute-scale validation.
func UniformSphere(radius, rho float64) *Phantom {
	return &Phantom{
		Name:       "uniform-sphere",
		Ellipsoids: []Ellipsoid{{0, 0, 0, radius, radius, radius, 0, rho}},
	}
}

// CoffeeBean returns a synthetic stand-in for the paper's roasted coffee
// bean: an ellipsoidal body with a flat face, a centre crease (the cut) and
// hollow pores, mimicking the walls/voids/laminar features the paper calls
// out (Section 6.1 "Importance of the Datasets").
func CoffeeBean() *Phantom {
	deg := math.Pi / 180
	p := &Phantom{
		Name: "coffee-bean",
		Ellipsoids: []Ellipsoid{
			{0, 0, 0, 0.62, 0.42, 0.34, 0, 1.0},      // body
			{0, -0.30, 0, 0.55, 0.22, 0.30, 0, -0.4}, // flattened face
			{0, 0.02, 0, 0.50, 0.055, 0.26, 0, -0.9}, // centre crease
			{0.25, 0.12, 0.08, 0.06, 0.05, 0.05, 15 * deg, -0.6},
			{-0.2, 0.15, -0.1, 0.05, 0.04, 0.06, -25 * deg, -0.6},
			{0.05, 0.2, 0.15, 0.035, 0.05, 0.04, 40 * deg, -0.6},
		},
	}
	return p
}

// Bumblebee returns a synthetic stand-in for the paper's bumblebee scan: a
// segmented body (head, thorax, abdomen) with low-density wing plates and a
// hollow gut, giving the mix of fine and coarse features of the original.
func Bumblebee() *Phantom {
	deg := math.Pi / 180
	return &Phantom{
		Name: "bumblebee",
		Ellipsoids: []Ellipsoid{
			{0, 0.45, 0, 0.18, 0.20, 0.18, 0, 0.9},               // head
			{0, 0.12, 0, 0.26, 0.24, 0.24, 0, 1.0},               // thorax
			{0, -0.35, 0, 0.30, 0.42, 0.30, 0, 0.8},              // abdomen
			{0, -0.35, 0, 0.18, 0.30, 0.18, 0, -0.5},             // gut cavity
			{0.38, 0.1, 0.1, 0.30, 0.10, 0.02, 35 * deg, 0.15},   // right wing
			{-0.38, 0.1, 0.1, 0.30, 0.10, 0.02, -35 * deg, 0.15}, // left wing
			{0.1, 0.45, 0.1, 0.03, 0.03, 0.03, 0, 0.5},           // eye
			{-0.1, 0.45, 0.1, 0.03, 0.03, 0.03, 0, 0.5},          // eye
		},
	}
}

// Foam returns a deterministic pseudo-random closed-cell foam: a solid body
// with n spherical voids, representing the metal-foam/trabecular-bone class
// of problems the paper cites as motivation.
func Foam(n int, seed int64) *Phantom {
	rng := rand.New(rand.NewSource(seed))
	p := &Phantom{Name: fmt.Sprintf("foam-%d", n)}
	p.Ellipsoids = append(p.Ellipsoids, Ellipsoid{0, 0, 0, 0.8, 0.8, 0.8, 0, 1})
	for i := 0; i < n; i++ {
		// Rejection-free placement: keep voids well inside the body.
		r := 0.04 + 0.06*rng.Float64()
		u, v, w := rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1
		norm := math.Sqrt(u*u+v*v+w*w) + 1e-9
		dist := 0.65 * math.Cbrt(rng.Float64())
		p.Ellipsoids = append(p.Ellipsoids, Ellipsoid{
			CX: u / norm * dist, CY: v / norm * dist, CZ: w / norm * dist,
			A: r, B: r, C: r, Rho: -1,
		})
	}
	return p
}

// Voxelize samples the phantom onto the reconstruction grid of sys, using
// scale (mm) as the half-extent of the normalised [−1,1] field of view.
// With super > 1 each voxel averages super³ sub-samples, which softens the
// partial-volume staircase at ellipsoid boundaries.
func (p *Phantom) Voxelize(sys *geometry.System, scale float64, super int) (*volume.Volume, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("phantom: scale %g must be positive", scale)
	}
	if super < 1 {
		super = 1
	}
	vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	inv := 1 / scale
	norm := 1 / float64(super*super*super)
	xs := make([]float64, 0, sys.NX*super)
	ys := make([]float64, 0, sys.NY*super)
	zs := make([]float64, 0, sys.NZ*super)
	for i := 0; i < sys.NX; i++ {
		x, _, _ := sys.VoxelWorld(i, 0, 0)
		xs = subSamples(xs, x, sys.DX, super, inv)
	}
	for j := 0; j < sys.NY; j++ {
		_, y, _ := sys.VoxelWorld(0, j, 0)
		ys = subSamples(ys, y, sys.DY, super, inv)
	}
	for k := 0; k < sys.NZ; k++ {
		_, _, z := sys.VoxelWorld(0, 0, k)
		zs = subSamples(zs, z, sys.DZ, super, inv)
	}
	es := make([]prepared, len(p.Ellipsoids))
	for i := range es {
		es[i] = p.Ellipsoids[i].prepare()
	}
	// The sub-samples of a sub-row lie at xs[q] ≈ x0 + q/invH.
	n := len(xs)
	x0, invH := xs[0], 1.0
	if n > 1 {
		invH = float64(n-1) / (xs[n-1] - xs[0])
	}
	// buf sums one sub-row's sub-samples, each the densities of the
	// ellipsoids that contain it in phantom order, from zero: ellipsoid by
	// ellipsoid, ρ over its span's sure interior and over the candidates
	// inside accepts. acc sums one slice's sub-samples voxel by voxel in the
	// order (sk, sj, si), from zero. These are the sums of a per-point loop
	// that adds ρ of every ellipsoid that Contains the sub-sample, in phantom
	// order, term for term. An ellipsoid left out of a sub-slice is
	// one Contains rejects there (zTerm), a sub-sample left out of its span
	// one inside rejects (span).
	acc := make([]float64, sys.NX*sys.NY)
	buf := make([]float64, n)
	slab := make([]slabTerm, 0, len(es))
	for k := 0; k < sys.NZ; k++ {
		clear(acc)
		for _, z := range zs[k*super : (k+1)*super] {
			slab = slab[:0]
			for i := range es {
				if qz2 := es[i].zTerm(z); qz2 <= 1 {
					slab = append(slab, slabTerm{e: &es[i], rowAxes: es[i].axes(), qz2: qz2})
				}
			}
			if len(slab) == 0 {
				continue
			}
			for j := 0; j < sys.NY; j++ {
				row := acc[j*sys.NX : (j+1)*sys.NX]
				for _, y := range ys[j*super : (j+1)*super] {
					clear(buf)
					for t := range slab {
						s := &slab[t]
						r := s.e.row(y)
						c0, i0, i1, c1 := s.span(r, x0, invH, n)
						for q := c0; q < i0; q++ {
							if s.e.inside(xs[q], r, s.qz2) {
								buf[q] += s.e.Rho
							}
						}
						for q := i0; q < i1; q++ {
							buf[q] += s.e.Rho
						}
						for q := i1; q < c1; q++ {
							if s.e.inside(xs[q], r, s.qz2) {
								buf[q] += s.e.Rho
							}
						}
					}
					q := 0
					for i := range row {
						for range super {
							row[i] += buf[q]
							q++
						}
					}
				}
			}
		}
		out := vol.Slice(k)
		for i, a := range acc {
			out[i] = float32(a * norm)
		}
	}
	return vol, nil
}

// subSamples appends the normalised coordinates of the super sub-samples of
// the voxel centred at c (mm, pitch d) along one axis.
func subSamples(dst []float64, c, d float64, super int, inv float64) []float64 {
	step := 1.0 / float64(super)
	for s := 0; s < super; s++ {
		off := (float64(s) + 0.5 - float64(float64(super)/2)) * step
		dst = append(dst, float64((float64(c)+float64(off*d))*inv))
	}
	return dst
}

// slabTerm is an ellipsoid that reaches one sub-slice, with its z term and
// its constants of the sub-row solve.
type slabTerm struct {
	e *prepared
	rowAxes
	qz2 float64
}

// rowAxes are an ellipsoid's constants of the sub-row solve (span). Along a
// sub-row, q moves by u = (cos/A, sin/B) per unit of x; invUU is 1/|u|².
type rowAxes struct{ invA, invB, ux, uy, invUU float64 }

func (p *prepared) axes() rowAxes {
	invA, invB := 1/p.A, 1/p.B
	ux, uy := p.cos*invA, p.sin*invB
	return rowAxes{invA, invB, ux, uy, 1 / (float64(ux*ux) + float64(uy*uy))}
}

// spanMargin is δ, the margin of the sub-row solve (span).
const spanMargin = 1e-6

// span returns which of a sub-row's n sub-samples, at xs[q] ≈ x0 + q·h with
// h = 1/invH, the ellipsoid can contain: inside is false outside the
// candidates [c0, c1) and true on the sure interior [i0, i1) within them. It
// decides no byte, only where inside need not be asked.
//
// Along the sub-row q(dx) = q0 + dx·u, with q0 = (−sinDY/A, cosDY/B), so
// g(dx) = |q|² + qz² − 1 is a convex quadratic. Its minimum m = (q0×u)²/|u|²
// + qz² − 1 lies at dx = −(q0·u)/|u|², and g ≤ ±δ on the interval of
// half-width √((±δ − m)/|u|²) about it. The candidates are the sub-samples
// where g ≤ +δ, widened by one index on each side; the sure interior those
// where g ≤ −δ, narrowed by one. inside rounds q's terms by a few ε·R, R ≈ 1
// the normalised offsets, and that moves g by less than 10⁻¹⁴/min(A, B). δ =
// 10⁻⁶ exceeds it by four orders for a semi-axis of 10⁻⁴ and by six for
// Shepp–Logan's least (0.023), so a sub-row that grazes the ellipsoid where
// inside accepts a sub-sample still has m < δ and a span. Along x, inside's
// chord ends move by a few ε·R (by its square root, 10⁻⁷, where the sub-row
// grazes), the solve's ends by a few ε·R (q0×u = −dy/(AB) does not cancel),
// and xs departs from the line by a few ε·R: one index of slack, a pitch of
// 10⁻³ or more up to 2 000 sub-samples across the field, exceeds all three by
// four orders or more, also for an ellipsoid too thin for δ. A solve that is
// not a number (a semi-axis of 0 or ∞) makes every sub-sample a candidate.
func (s *slabTerm) span(r rowTerms, x0, invH float64, n int) (c0, i0, i1, c1 int) {
	q0x, q0y := -r.sinDY*s.invA, r.cosDY*s.invB
	mid := s.e.CX - (q0x*s.ux+q0y*s.uy)*s.invUU - x0
	cross := q0x*s.uy - q0y*s.ux
	m := cross*cross*s.invUU + s.qz2 - 1
	if m >= spanMargin {
		return 0, 0, 0, 0
	}
	lo, hi, ok := indexRange(mid, math.Sqrt((spanMargin-m)*s.invUU), invH, n)
	if !ok {
		return 0, 0, 0, n
	}
	c0, c1 = max(int(math.Ceil(lo))-1, 0), min(int(math.Floor(hi))+2, n)
	if c0 >= c1 {
		return 0, 0, 0, 0
	}
	i0, i1 = c0, c0
	if m < -spanMargin {
		if lo, hi, ok := indexRange(mid, math.Sqrt((-spanMargin-m)*s.invUU), invH, n); ok {
			if a, b := max(int(math.Ceil(lo))+1, c0), min(int(math.Floor(hi)), c1); a < b {
				i0, i1 = a, b
			}
		}
	}
	return c0, i0, i1, c1
}

// indexRange maps the interval mid ± w of x − x0 to fractional sub-sample
// indices at a pitch of 1/invH, clamped to [−1, n+1]; ok is false if it is
// not a number.
func indexRange(mid, w, invH float64, n int) (lo, hi float64, ok bool) {
	lo, hi = (mid-w)*invH, (mid+w)*invH
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, 0, false
	}
	end := float64(n) + 1
	return min(max(lo, -1), end), min(max(hi, -1), end), true
}
