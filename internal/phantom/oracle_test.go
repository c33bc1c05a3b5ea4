package phantom

import (
	"fmt"
	"math"
	"testing"

	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The voxeliser's oracle: the per-point spelling, which evaluates the
// ellipsoid's rotation trig and every term of the quadratic form for every
// sub-sample and ellipsoid, and the voxel's world position for every
// sub-sample. Contains and Voxelize must return its bits.

func containsOracle(e *Ellipsoid, x, y, z float64) bool {
	sin, cos := math.Sincos(-e.Phi)
	dx, dy, dz := x-e.CX, y-e.CY, z-e.CZ
	rx := float64(cos*dx) - float64(sin*dy)
	ry := float64(sin*dx) + float64(cos*dy)
	qx, qy, qz := rx/e.A, ry/e.B, dz/e.C
	return float64(qx*qx)+float64(qy*qy)+float64(qz*qz) <= 1
}

func densityOracle(p *Phantom, x, y, z float64) float64 {
	var d float64
	for i := range p.Ellipsoids {
		if containsOracle(&p.Ellipsoids[i], x, y, z) {
			d += p.Ellipsoids[i].Rho
		}
	}
	return d
}

func voxelizeOracle(p *Phantom, sys *geometry.System, scale float64, super int) *volume.Volume {
	vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		panic(err)
	}
	inv := 1 / scale
	step := 1.0 / float64(super)
	norm := 1 / float64(super*super*super)
	for k := 0; k < sys.NZ; k++ {
		for j := 0; j < sys.NY; j++ {
			for i := 0; i < sys.NX; i++ {
				var acc float64
				for sk := 0; sk < super; sk++ {
					for sj := 0; sj < super; sj++ {
						for si := 0; si < super; si++ {
							x, y, z := sys.VoxelWorld(i, j, k)
							half := float64(float64(super) / 2)
							x = float64(x) + float64((float64(si)+0.5-half)*step*sys.DX)
							y = float64(y) + float64((float64(sj)+0.5-half)*step*sys.DY)
							z = float64(z) + float64((float64(sk)+0.5-half)*step*sys.DZ)
							acc += densityOracle(p, float64(x*inv), float64(y*inv), float64(z*inv))
						}
					}
				}
				vol.Set(i, j, k, float32(acc*norm))
			}
		}
	}
	return vol
}

// boundaryPhantom's ellipsoids are centred on a sub-sample of the grid with
// semi-axes whole multiples of the voxel pitch, so that many sub-samples
// lie on their surfaces in exact arithmetic — the ends of the axes, and
// (3,4,0) pitches from the centre of a sphere of radius 5 — and the side
// they round to depends on every operation of the inside test. The named
// phantoms' surfaces pass near few samples.
func boundaryPhantom(sys *geometry.System, scale float64, super int) *Phantom {
	inv := 1 / scale
	p := &Phantom{Name: "boundary"}
	for _, c := range [][3]int{{sys.NX / 2, sys.NY / 2, sys.NZ / 2}, {sys.NX/2 - 2, sys.NY/2 + 1, sys.NZ/2 - 1}} {
		x, y, z := sys.VoxelWorld(c[0], c[1], c[2])
		cx := subSamples(nil, x, sys.DX, super, inv)[0]
		cy := subSamples(nil, y, sys.DY, super, inv)[0]
		cz := subSamples(nil, z, sys.DZ, super, inv)[0]
		for _, axes := range [][3]float64{{5, 5, 5}, {3, 4, 5}, {5, 3, 4}, {4, 4, 7}} {
			for _, phi := range []float64{0, math.Pi / 2, math.Pi / 4} {
				p.Ellipsoids = append(p.Ellipsoids, Ellipsoid{
					CX: cx, CY: cy, CZ: cz,
					A: axes[0] * sys.DX * inv, B: axes[1] * sys.DY * inv, C: axes[2] * sys.DZ * inv,
					Phi: phi, Rho: 1,
				})
			}
		}
	}
	return p
}

// tangentPhantom's ellipsoids end on a sub-sample, or within 10⁻¹² of one,
// in each of the three ways an ellipsoid can end there, so that only the
// span's margins keep that sample right:
//   - a sub-row grazes a cross-section at a sub-sample: with the sub-row's
//     own dy as the semi-axis, or one ulp either side of it, and rotated
//     with the tangent point 10⁻¹³ either side of the sample;
//   - a sub-slice is an ellipsoid's top or bottom (qz² = 1), which touches it
//     at one sub-sample only;
//   - a needle 10⁻¹⁷ to 10⁻¹⁵ thin crosses the sub-rows at sub-samples on a
//     square grid, so its whole chord lies within the rounding of the
//     sample positions.
func tangentPhantom(sys *geometry.System, scale float64, super int) *Phantom {
	inv := 1 / scale
	var xs, ys, zs []float64
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
	p := &Phantom{Name: "tangent"}
	add := func(e Ellipsoid) {
		e.Rho = 0.125 * float64(1+len(p.Ellipsoids)%7)
		p.Ellipsoids = append(p.Ellipsoids, e)
	}
	mx, my, mz := len(xs)/2, len(ys)/2, len(zs)/2
	pitch := sys.DX * inv
	for k, off := range []int{-3, 0, 2} {
		x, y, z := xs[mx+off], ys[my-off], zs[mz+k-1]
		// Unrotated, from above and from below: qy is ±1 at the sample.
		for _, cy := range []float64{y - 4*pitch, y + 3*pitch} {
			b := math.Abs(y - cy)
			for _, bb := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 1)} {
				add(Ellipsoid{CX: x, CY: cy, CZ: z, A: 5 * pitch, B: bb, C: 4 * pitch})
			}
		}
		// Rotated: the sample is the top of the cross-section, d(θ*) from the
		// centre, with d(θ) = R(φ)·(A cos θ, B sin θ).
		for _, phi := range []float64{math.Pi / 6, -math.Pi / 5, 2 * math.Pi / 7} {
			a, b := 5*pitch, 3*pitch
			sin, cos := math.Sincos(phi)
			th := math.Atan2(b*cos, a*sin)
			dx := cos*a*math.Cos(th) - sin*b*math.Sin(th)
			dy := sin*a*math.Cos(th) + cos*b*math.Sin(th)
			for _, f := range []float64{0, 1e-13, -1e-13} {
				add(Ellipsoid{CX: x - dx*(1+f), CY: y - dy*(1+f), CZ: z, A: a, B: b, C: 4 * pitch, Phi: phi})
			}
		}
		// The top and the bottom of an ellipsoid on a sub-slice: qz² = 1.
		for _, phi := range []float64{0, math.Pi / 3} {
			cz := z - 3*pitch
			add(Ellipsoid{CX: x, CY: y, CZ: cz, A: 4 * pitch, B: 5 * pitch, C: z - cz, Phi: phi})
			cz = z + 2*pitch
			add(Ellipsoid{CX: x, CY: y, CZ: cz, A: 4 * pitch, B: 3 * pitch, C: cz - z, Phi: phi})
		}
	}
	// Needles along the grid's diagonals through the centre sample.
	for _, a := range []float64{1e-17, 1e-16, 1e-15} {
		for _, phi := range []float64{math.Pi / 4, -math.Pi / 4} {
			add(Ellipsoid{CX: xs[mx], CY: ys[my], CZ: zs[mz], A: a, B: 6 * pitch, C: 5 * pitch, Phi: phi})
		}
	}
	return p
}

// benchmarkSystem is the grid of the repository benchmark's workloads:
// tomo_00030 at a ÷8 pitch on 96³ voxels, which it voxelises at a
// half-extent of 48 pitches (package dataset imports this one).
func benchmarkSystem() (*geometry.System, float64) {
	return &geometry.System{
		DSO: 250, DSD: 350,
		NU: 83, NV: 55, DU: 0.6036144578313253, DV: 0.6068181818181818, NP: 88,
		NX: 96, NY: 96, NZ: 96, DX: 0.35412946428571423, DY: 0.35412946428571423, DZ: 0.35412946428571423,
		SigmaU: -10, SigmaV: 0.2,
	}, 16.998214285714283
}

// matchesOracle fails the test unless Voxelize returns voxelizeOracle's bits.
func matchesOracle(t *testing.T, p *Phantom, sys *geometry.System, scale float64, super int) {
	t.Helper()
	name := fmt.Sprintf("%dx%dx%d/%s/scale %g/super %d", sys.NX, sys.NY, sys.NZ, p.Name, scale, super)
	got, err := p.Voxelize(sys, scale, super)
	if err != nil {
		t.Fatal(err)
	}
	want := voxelizeOracle(p, sys, scale, super)
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: voxel %d is %g, oracle %g", name, i, got.Data[i], want.Data[i])
		}
	}
}

// Voxelize evaluates each ellipsoid's trig once, a sub-slice's z terms once
// and a sub-row's y terms once, skips an ellipsoid for a sub-slice it does
// not reach, and asks inside only near the ends of each sub-row's span; its
// voxels must still be the oracle's bits, and Contains, built from the same
// prepared form, must agree with the oracle point for point.
func TestVoxelizeMatchesOracle(t *testing.T) {
	odd := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 37, NV: 29, DU: 0.9, DV: 0.9, NP: 13,
		NX: 17, NY: 19, NZ: 15, DX: 0.61, DY: 0.73, DZ: 0.83,
	}
	for _, sys := range []*geometry.System{testSystem(), odd} {
		for _, scale := range []float64{6, 9} {
			for super := 1; super <= 3; super++ {
				phantoms := []*Phantom{boundaryPhantom(sys, scale, super), tangentPhantom(sys, scale, super)}
				if scale == 6 {
					phantoms = append(phantoms, SheppLogan(), CoffeeBean(), Bumblebee(), Foam(40, 7))
				}
				for _, p := range phantoms {
					matchesOracle(t, p, sys, scale, super)
					if super > 1 {
						continue
					}
					inv := 1 / scale
					for k := 0; k < sys.NZ; k++ {
						for j := 0; j < sys.NY; j++ {
							for i := 0; i < sys.NX; i++ {
								x, y, z := sys.VoxelWorld(i, j, k)
								x, y, z = x*inv, y*inv, z*inv
								for e := range p.Ellipsoids {
									if got, want := p.Ellipsoids[e].Contains(x, y, z), containsOracle(&p.Ellipsoids[e], x, y, z); got != want {
										t.Fatalf("%s/scale %g: ellipsoid %d at (%g,%g,%g): Contains %v, oracle %v", p.Name, scale, e, x, y, z, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The benchmark's reference, and the experiments' setting of it.
	sys, scale := benchmarkSystem()
	for super := 1; super <= 2; super++ {
		matchesOracle(t, SheppLogan(), sys, scale, super)
	}
}
