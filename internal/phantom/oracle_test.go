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

// Voxelize evaluates each ellipsoid's trig once, a sub-slice's z terms once
// and a sub-row's y terms once, and skips an ellipsoid for a sub-slice it
// does not reach; its voxels must still be the oracle's bits, and Contains,
// built from the same prepared form, must agree with the oracle point for
// point.
func TestVoxelizeMatchesOracle(t *testing.T) {
	odd := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 37, NV: 29, DU: 0.9, DV: 0.9, NP: 13,
		NX: 17, NY: 19, NZ: 15, DX: 0.61, DY: 0.73, DZ: 0.83,
	}
	for _, sys := range []*geometry.System{testSystem(), odd} {
		for _, scale := range []float64{6, 9} {
			for super := 1; super <= 3; super++ {
				phantoms := []*Phantom{boundaryPhantom(sys, scale, super)}
				if scale == 6 {
					phantoms = append(phantoms, SheppLogan(), CoffeeBean(), Bumblebee(), Foam(40, 7))
				}
				for _, p := range phantoms {
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
										t.Fatalf("%s: ellipsoid %d at (%g,%g,%g): Contains %v, oracle %v", name, e, x, y, z, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
