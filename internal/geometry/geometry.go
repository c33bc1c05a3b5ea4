// Package geometry models the cone-beam CT acquisition geometry: the system
// parameters of Table 1, the general 3×4 projection matrix with geometric
// correction of Section 4.1, the projection operation of Equation 8, and the
// maximum-projection-area computation of Algorithm 2 that drives the paper's
// two-dimensional input decomposition.
//
// Coordinate conventions (documented in DESIGN.md): the reconstructed volume
// is centred at the origin, voxel (i,j,k) has world position
// ((i−(Nx−1)/2)·Δx, (j−(Ny−1)/2)·Δy, (k−(Nz−1)/2)·Δz) in millimetres. The
// gantry rotates about the Z axis; at angle φ the object is rotated by φ, the
// X-ray source sits at (0, −Dso, 0) of the rotated frame and the flat-panel
// detector plane is Dsd from the source with its U axis parallel to rotated X
// and its V axis parallel to Z.
package geometry

import (
	"errors"
	"fmt"
	"math"
)

// System collects the geometric parameters of a cone-beam CT system
// (Table 1 of the paper). Distances are in millimetres, detector and voxel
// pitches in mm/pixel and mm/voxel, offsets SigmaU/SigmaV in pixels and
// SigmaCOR in millimetres.
type System struct {
	// DSO is the distance from the X-ray source to the rotation axis.
	DSO float64
	// DSD is the distance from the X-ray source to the detector plane.
	DSD float64

	// NU, NV are the detector width and height in pixels.
	NU, NV int
	// DU, DV are the detector pixel pitches along U and V.
	DU, DV float64

	// NP is the number of acquired 2-D projections.
	NP int
	// StartAngle is the rotation angle of projection 0, in radians.
	StartAngle float64
	// AngleRange is the total angular span of the NP projections, in
	// radians. Zero means a full 2π scan.
	AngleRange float64

	// NX, NY, NZ are the output volume dimensions in voxels.
	NX, NY, NZ int
	// DX, DY, DZ are the voxel pitches.
	DX, DY, DZ float64

	// SigmaU, SigmaV are the flat-panel centre offsets in pixels
	// (Figure 7a); SigmaCOR is the rotation-centre offset in millimetres
	// (Figure 7b). They are folded into the projection matrix so the
	// geometric correction costs nothing at reconstruction time.
	SigmaU, SigmaV float64
	SigmaCOR       float64
}

// Validate reports whether the system parameters describe a physically
// meaningful acquisition.
func (s *System) Validate() error {
	switch {
	case s.DSO <= 0:
		return errors.New("geometry: DSO must be positive")
	case s.DSD <= 0:
		return errors.New("geometry: DSD must be positive")
	case s.DSD < s.DSO:
		return fmt.Errorf("geometry: DSD (%g) must be >= DSO (%g)", s.DSD, s.DSO)
	case s.NU <= 0 || s.NV <= 0:
		return fmt.Errorf("geometry: detector size %dx%d must be positive", s.NU, s.NV)
	case s.DU <= 0 || s.DV <= 0:
		return fmt.Errorf("geometry: pixel pitch %gx%g must be positive", s.DU, s.DV)
	case s.NP <= 0:
		return fmt.Errorf("geometry: NP=%d must be positive", s.NP)
	case s.NX <= 0 || s.NY <= 0 || s.NZ <= 0:
		return fmt.Errorf("geometry: volume %dx%dx%d must be positive", s.NX, s.NY, s.NZ)
	case s.DX <= 0 || s.DY <= 0 || s.DZ <= 0:
		return fmt.Errorf("geometry: voxel pitch %gx%gx%g must be positive", s.DX, s.DY, s.DZ)
	case s.AngleRange < 0:
		return errors.New("geometry: AngleRange must be non-negative")
	}
	if r := s.maxObjectRadius(); r >= s.DSO {
		return fmt.Errorf("geometry: volume radius %.3g mm reaches the source orbit (DSO=%g)", r, s.DSO)
	}
	return nil
}

// Magnification returns the cone-beam magnification factor Dsd/Dso
// (Section 2.2.2). The coffee bean dataset of the paper reaches 9.48.
func (s *System) Magnification() float64 { return s.DSD / s.DSO }

// angleRange returns the effective angular span, defaulting to a full scan.
func (s *System) angleRange() float64 {
	if s.AngleRange == 0 {
		return 2 * math.Pi
	}
	return s.AngleRange
}

// Angle returns the rotation angle φ of projection index p, following the
// paper's full-scan convention φ = range·p/Np (Section 2.2.4).
func (s *System) Angle(p int) float64 {
	return s.StartAngle + s.angleRange()*float64(p)/float64(s.NP)
}

// AngleStep returns the angular increment Δβ between projections. The FDK
// quadrature weight Δβ/2 is folded into the filter normalisation.
func (s *System) AngleStep() float64 { return s.angleRange() / float64(s.NP) }

// FanHalfAngle returns the half fan angle γ_m subtended by the detector's
// widest column about the central ray, in radians.
func (s *System) FanHalfAngle() float64 {
	cu := (float64(s.NU)-1)/2 + s.SigmaU
	extent := math.Max(cu, float64(s.NU)-1-cu) * s.DU
	return math.Atan2(extent, s.DSD)
}

// ShortScanRange returns the minimal angular range π + 2γ_m for an exact
// short-scan (half) acquisition with Parker redundancy weighting.
func (s *System) ShortScanRange() float64 { return math.Pi + 2*s.FanHalfAngle() }

// IsShortScan reports whether the configured angular range is a partial
// scan that needs redundancy weighting (anything meaningfully below 2π).
func (s *System) IsShortScan() bool { return s.angleRange() < 2*math.Pi-1e-9 }

// Matrix returns the general 3×4 projection matrix M_φ of Section 4.1 for
// rotation angle phi (radians). The matrix maps homogeneous voxel indices
// [i j k 1]ᵀ to homogeneous detector coordinates; after the perspective
// divide the first two components are the detector (u,v) position in pixels
// at sub-pixel precision and the homogeneous depth z equals (ray depth)/Dso,
// so Algorithm 1's 1/z² accumulation weight is exactly the FDK distance
// weight (Dso/ℓ)².
func (s *System) Matrix(phi float64) Mat34 {
	sin, cos := math.Sincos(phi)

	// V: voxel index -> world mm, volume centred at the origin.
	tx := -(float64(s.NX) - 1) / 2 * s.DX
	ty := -(float64(s.NY) - 1) / 2 * s.DY
	tz := -(float64(s.NZ) - 1) / 2 * s.DZ
	v := mat44{
		{s.DX, 0, 0, tx},
		{0, s.DY, 0, ty},
		{0, 0, s.DZ, tz},
		{0, 0, 0, 1},
	}

	// G: world mm -> gantry frame [x_r z_r depth]. The rotation-centre
	// offset σcor shifts the rotated X (Figure 7b); the source sits at
	// depth 0, the rotation axis at depth Dso.
	g := Mat34{
		{cos, -sin, 0, s.SigmaCOR},
		{0, 0, 1, 0},
		{sin, cos, 0, s.DSO},
	}

	// K: gantry frame -> detector pixels, with the flat-panel centre
	// offsets σu, σv (Figure 7a).
	cu := (float64(s.NU)-1)/2 + s.SigmaU
	cv := (float64(s.NV)-1)/2 + s.SigmaV
	k := mat33{
		{s.DSD / s.DU, 0, cu},
		{0, s.DSD / s.DV, cv},
		{0, 0, 1},
	}

	m := k.mulMat34(g).mulMat44(v)
	m.scale(1 / s.DSO)
	return m
}

// Matrices returns the projection matrices for all NP acquisition angles,
// Mat[p] = M_{φ(p)} (the Mat input of Algorithm 1).
func (s *System) Matrices() []Mat34 {
	ms := make([]Mat34, s.NP)
	for p := range ms {
		ms[p] = s.Matrix(s.Angle(p))
	}
	return ms
}

// maxObjectRadius returns the largest XY distance from the rotation axis to
// any voxel centre of the volume. Because the volume is centred, all four
// corner columns share this radius.
func (s *System) maxObjectRadius() float64 {
	hx := (float64(s.NX) - 1) / 2 * s.DX
	hy := (float64(s.NY) - 1) / 2 * s.DY
	return math.Hypot(hx, hy)
}

// VoxelWorld returns the world-space position of voxel (i,j,k) in mm. A
// halving compiles to a product by 0.5, so each is rounded (float64(…))
// before it feeds a subtract: phantom.Voxelize, which places its samples
// here, must not depend on a host's fused multiply-adds.
func (s *System) VoxelWorld(i, j, k int) (x, y, z float64) {
	x = (float64(i) - float64((float64(s.NX)-1)/2)) * s.DX
	y = (float64(j) - float64((float64(s.NY)-1)/2)) * s.DY
	z = (float64(k) - float64((float64(s.NZ)-1)/2)) * s.DZ
	return
}
