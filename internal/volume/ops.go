package volume

import (
	"fmt"
	"math"
)

// SubVolume returns a copy of the axis-aligned region of interest with
// local origin (x0,y0,z0) and extents (nx,ny,nz). The result's Z0 carries
// the global slice position.
func (v *Volume) SubVolume(x0, y0, z0, nx, ny, nz int) (*Volume, error) {
	if x0 < 0 || y0 < 0 || z0 < 0 || nx <= 0 || ny <= 0 || nz <= 0 ||
		x0+nx > v.NX || y0+ny > v.NY || z0+nz > v.NZ {
		return nil, fmt.Errorf("volume: ROI (%d,%d,%d)+(%d,%d,%d) outside %s",
			x0, y0, z0, nx, ny, nz, v.ShapeString())
	}
	out, err := NewSlab(nx, ny, nz, v.Z0+z0)
	if err != nil {
		return nil, err
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			srcOff := ((z0+k)*v.NY+(y0+j))*v.NX + x0
			dstOff := (k*ny + j) * nx
			copy(out.Data[dstOff:dstOff+nx], v.Data[srcOff:srcOff+nx])
		}
	}
	return out, nil
}

// Summary holds descriptive statistics of a volume's voxel values.
type Summary struct {
	Min, Max  float32
	Mean, Std float64
	NaNOrInf  int
	Voxels    int
}

// Summarize computes descriptive statistics in one pass, counting
// non-finite voxels separately (a reconstruction that produced any is
// broken, and summaries are where that gets noticed).
func (v *Volume) Summarize() Summary {
	s := Summary{Voxels: len(v.Data)}
	if len(v.Data) == 0 {
		return s
	}
	var sum, sum2 float64
	first := true
	for _, x := range v.Data {
		fx := float64(x)
		if math.IsNaN(fx) || math.IsInf(fx, 0) {
			s.NaNOrInf++
			continue
		}
		if first {
			s.Min, s.Max = x, x
			first = false
		}
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += fx
		sum2 += fx * fx
	}
	n := float64(s.Voxels - s.NaNOrInf)
	if n > 0 {
		s.Mean = sum / n
		variance := sum2/n - s.Mean*s.Mean
		if variance > 0 {
			s.Std = math.Sqrt(variance)
		}
	}
	return s
}

// Histogram bins the voxel values into bins equal-width buckets over
// [lo, hi]; values outside the range clamp to the edge bins.
func (v *Volume) Histogram(lo, hi float32, bins int) ([]int, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("volume: histogram needs positive bin count, got %d", bins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("volume: histogram range [%g,%g] is empty", lo, hi)
	}
	out := make([]int, bins)
	scale := float32(bins) / (hi - lo)
	for _, x := range v.Data {
		b := int((x - lo) * scale)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out, nil
}
