// Package dataset is the registry of the paper's evaluation datasets
// (Section 6.1 and Table 4). The raw scans cannot be redistributed, so each
// entry pairs the published acquisition geometry — source/detector
// distances, detector dimensions, projection counts and the geometric
// corrections of Table 4 — with a synthetic phantom whose features mimic
// the original object. Full-size geometries feed the paper-scale simulated
// experiments; Scaled twins shrink the acquisition proportionally so the
// same code paths run for real on a laptop.
package dataset

import (
	"fmt"

	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
)

// Dataset describes one acquisition.
type Dataset struct {
	Name        string
	Description string

	// Geometry (Section 6.1).
	DSO, DSD float64
	NU, NV   int
	DU, DV   float64
	NP       int

	// Geometric corrections (Table 4).
	SigmaU, SigmaV, SigmaCOR float64

	// Beer–Lambert calibration (Table 4).
	Dark, Blank float64

	// FOV is the reconstructed field-of-view width in mm (sets the
	// voxel pitch for a requested output size).
	FOV float64

	// Phantom builds the synthetic stand-in object.
	Phantom func() *phantom.Phantom
}

// Magnification returns Dsd/Dso.
func (d *Dataset) Magnification() float64 { return d.DSD / d.DSO }

// Beer returns the dataset's photon-count calibration.
func (d *Dataset) Beer() *filter.Beer { return &filter.Beer{Dark: d.Dark, Blank: d.Blank} }

// System returns the acquisition geometry with an outN³ reconstruction
// grid (voxel pitch FOV/outN).
func (d *Dataset) System(outN int) (*geometry.System, error) {
	if outN <= 0 {
		return nil, fmt.Errorf("dataset: output size %d must be positive", outN)
	}
	pitch := d.FOV / float64(outN)
	sys := &geometry.System{
		DSO: d.DSO, DSD: d.DSD,
		NU: d.NU, NV: d.NV, DU: d.DU, DV: d.DV,
		NP: d.NP,
		NX: outN, NY: outN, NZ: outN,
		DX: pitch, DY: pitch, DZ: pitch,
		SigmaU: d.SigmaU, SigmaV: d.SigmaV, SigmaCOR: d.SigmaCOR,
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("dataset %s: %w", d.Name, err)
	}
	return sys, nil
}

// Scaled returns a proportionally shrunk twin: detector dimensions and
// projection count divided by div with pixel pitch enlarged to preserve
// the physical detector extent and magnification, so decomposition
// behaviour (overlap ratios, ComputeAB ranges relative to NV) matches the
// full-size acquisition.
func (d *Dataset) Scaled(div int) (*Dataset, error) {
	if div <= 0 {
		return nil, fmt.Errorf("dataset: scale divisor %d must be positive", div)
	}
	t := *d
	t.Name = fmt.Sprintf("%s/%d", d.Name, div)
	t.NU = max(d.NU/div, 16)
	t.NV = max(d.NV/div, 16)
	t.NP = max(d.NP/div, 8)
	t.DU = d.DU * float64(d.NU) / float64(t.NU)
	t.DV = d.DV * float64(d.NV) / float64(t.NV)
	// Round NP to a convenient highly-divisible value so rank counts
	// divide it (the paper's Np are similarly chosen per run).
	t.NP = roundToMultiple(t.NP, 8)
	return &t, nil
}

// Rebin2x returns the dataset with 2×2 detector pixels binned into one —
// the paper's "Coffee bean 2x" preparation of Figure 13b: half the
// detector dimensions at double the pixel pitch, preserving the physical
// detector extent and magnification while quartering the input volume.
func (d *Dataset) Rebin2x() *Dataset {
	t := *d
	t.Name = d.Name + "-2x"
	t.Description = d.Description + " (2x2 detector rebinning)"
	t.NU = d.NU / 2
	t.NV = d.NV / 2
	t.DU = d.DU * 2
	t.DV = d.DV * 2
	return &t
}

func roundToMultiple(n, m int) int {
	r := (n + m/2) / m * m
	if r < m {
		return m
	}
	return r
}

// fov derives a field of view that keeps the scanned object comfortably
// inside the detector: the detector width back-projected to the rotation
// axis, times a safety margin.
func fov(nu int, du, dsd, dso float64, margin float64) float64 {
	return float64(nu) * du * dso / dsd * margin
}

// CoffeeBean is the micro-CT coffee bean scan: Zeiss Xradia Versa 510,
// 9.48× magnification, detector offset-stitched to 3928×1998 pixels,
// 6401 projections (~177 GB of input). Voxel pitches land near 2 µm for a
// 4096³ output, matching the X-ray microscopy regime.
func CoffeeBean() *Dataset {
	d := &Dataset{
		Name:        "coffee-bean",
		Description: "roasted coffee bean, offset-detector stitched micro-CT (§6.1.i)",
		DSO:         16.0, DSD: 151.7,
		NU: 3928, NV: 1998, DU: 0.0185, DV: 0.0185,
		NP:       6400, // paper: 6401; rounded even for clean rank splits
		SigmaCOR: -0.0021,
		Dark:     0, Blank: 65536,
		Phantom: phantom.CoffeeBean,
	}
	d.FOV = fov(d.NU, d.DU, d.DSD, d.DSO, 0.95)
	return d
}

// Bumblebee is the Nikon HMX ST 225 bumblebee scan at 16.9×
// magnification.
func Bumblebee() *Dataset {
	d := &Dataset{
		Name:        "bumblebee",
		Description: "bumblebee micro-CT scan (§6.1.ii)",
		DSO:         39.8, DSD: 672.5,
		NU: 2000, NV: 2000, DU: 0.2, DV: 0.2,
		NP:       3142,
		SigmaCOR: 1.03,
		Dark:     0, Blank: 65536,
		Phantom: phantom.Bumblebee,
	}
	d.FOV = fov(d.NU, d.DU, d.DSD, d.DSO, 0.95)
	return d
}

// tomoBank builds one of the four TomoBank datasets of Table 4.
func tomoBank(id string, dsd, dso float64, nu, nv int, du float64, np int, su, sv float64, ph func() *phantom.Phantom) *Dataset {
	d := &Dataset{
		Name:        id,
		Description: fmt.Sprintf("TomoBank %s cone-beam scan (Table 4)", id),
		DSO:         dso, DSD: dsd,
		NU: nu, NV: nv, DU: du, DV: du,
		NP:     np,
		SigmaU: su, SigmaV: sv,
		Dark: 100, Blank: 65536,
		Phantom: ph,
	}
	d.FOV = fov(d.NU, d.DU, d.DSD, d.DSO, 0.95)
	return d
}

// tomo00027 returns TomoBank tomo_00027.
func tomo00027() *Dataset {
	return tomoBank("tomo_00027", 250, 100, 2004, 1335, 0.025, 1800, 25, 0.25, phantom.SheppLogan)
}

// tomo00028 returns TomoBank tomo_00028.
func tomo00028() *Dataset {
	return tomoBank("tomo_00028", 250, 100, 2004, 1335, 0.025, 1800, 26, 0.25, func() *phantom.Phantom { return phantom.Foam(40, 28) })
}

// Tomo00029 returns TomoBank tomo_00029 (the 17.9 GB input of Table 5).
func Tomo00029() *Dataset {
	return tomoBank("tomo_00029", 250, 100, 2004, 1335, 0.025, 1800, 27, 0.2, func() *phantom.Phantom { return phantom.Foam(60, 29) })
}

// tomo00030 returns TomoBank tomo_00030 (the 816 MB input of Table 5 and
// the Figure 8 slice).
func tomo00030() *Dataset {
	return tomoBank("tomo_00030", 350, 250, 668, 445, 0.075, 720, -10, 0.2, phantom.SheppLogan)
}

// registered returns every dataset ByName knows, in the paper's order.
func registered() []*Dataset {
	return []*Dataset{CoffeeBean(), Bumblebee(), tomo00027(), tomo00028(), Tomo00029(), tomo00030()}
}

// ByName looks a dataset up by name.
func ByName(name string) (*Dataset, error) {
	for _, d := range registered() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// InputBytes returns the raw projection data size (float32 samples).
func (d *Dataset) InputBytes() int64 {
	return int64(d.NU) * int64(d.NV) * int64(d.NP) * 4
}
