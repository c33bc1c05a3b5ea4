package backproject

import (
	"math"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// The oracle: Algorithm 1 evaluated voxel by voxel under the coordinate
// contract of simd.go, spelled here without the kernel's helpers. Each of
// the four bilinear neighbours is tested against the readable window, and
// there are no spans, tiles, groups or bodies. Every product that feeds an
// add or a subtract is written float32(a*b), so the oracle has one value on
// every host, like the kernel it judges; make fuse-lint reads it in the
// package's test build.

// denseAccess addresses a stack in its own dense (v, p, u) order, not
// re-laid as the kernel reads it, so that the oracle does not share the
// layout it judges.
func denseAccess(s *projection.Stack) projAccess {
	a := projAccess{data: s.Data, nu: s.NU, np: s.NP, sStride: s.NU, lo: s.V0, hi: s.V0 + s.NV}
	a.rowOff = make([]int, s.NV+4)
	for v := 0; v < s.NV; v++ {
		a.rowOff[v+2] = v * s.NP * s.NU
	}
	return a
}

// subPixel is Listing 1's devSubPixel: the four neighbours of (x, y) in
// projection s, blended by the sub-pixel fractions as the contract blends
// them. Neighbours outside the readable rows or the detector width are
// zero, the CUDA texture border the original kernel relies on.
func (a *projAccess) subPixel(x, y float32, s int) float32 {
	iu := int(math.Floor(float64(x)))
	iv := int(math.Floor(float64(y)))
	eu := x - float32(iu)
	ev := y - float32(iv)
	get := func(v, u int) float32 {
		if v < a.lo || v >= a.hi || u < 0 || u >= a.nu {
			return 0
		}
		return a.data[a.rowOff[v-a.lo+2]+s*a.sStride+u]
	}
	p00, p01, p10, p11 := get(iv, iu), get(iv, iu+1), get(iv+1, iu), get(iv+1, iu+1)
	t1 := p00 + float32(eu*(p01-p00))
	t2 := p10 + float32(eu*(p11-p10))
	return t1 + float32(ev*(t2-t1))
}

// perColumn accumulates projection s into columns [g0,g1) of one output
// row with the row constants (ax, ay, az) and (xc, yc, zc).
func (a *projAccess) perColumn(out []float32, s, g0, g1 int, ax, ay, az, xc, yc, zc float32) {
	for i := g0; i < g1; i++ {
		fi := float32(i)
		rz := 1 / (float32(az*fi) + zc)
		x := float32((float32(ax*fi) + xc) * rz)
		y := float32((float32(ay*fi) + yc) * rz)
		out[i] += float32(rz * rz * a.subPixel(x, y, s))
	}
}

// reference back-projects every projection into every voxel of vol: what
// the kernel must produce, since the columns it skips contribute exactly
// +0.
func (a projAccess) reference(mats []geometry.Mat34x4, vol *volume.Volume) {
	for k := 0; k < vol.NZ; k++ {
		kf := float32(vol.Z0 + k)
		for j := 0; j < vol.NY; j++ {
			jf := float32(j)
			out := vol.Data[(k*vol.NY+j)*vol.NX : (k*vol.NY+j+1)*vol.NX]
			for s := range mats {
				m := &mats[s]
				xc := float32(m.R0[1]*jf) + float32(m.R0[2]*kf) + m.R0[3]
				yc := float32(m.R1[1]*jf) + float32(m.R1[2]*kf) + m.R1[3]
				zc := float32(m.R2[1]*jf) + float32(m.R2[2]*kf) + m.R2[3]
				a.perColumn(out, s, 0, vol.NX, m.R0[0], m.R1[0], m.R2[0], xc, yc, zc)
			}
		}
	}
}
