// Package volume provides the dense 3-D image type produced by the
// reconstruction, its decomposition into Z slabs (the paper's sub-volumes
// V_0 … V_{Nn−1} of Figure 3c), accumulation/reduction helpers, comparison
// statistics, and raw/PGM serialisation for inspection and storage.
package volume

import (
	"errors"
	"fmt"
	"math"
)

// Volume is a dense float32 image of NZ×NY×NX voxels stored Z-major
// (I[k][j][i] of Algorithm 1 maps to Data[(k·NY+j)·NX+i]). Z0 is the global
// index of the first slice; a full reconstruction has Z0 == 0, while a slab
// (sub-volume) carries its position in the aggregate volume.
type Volume struct {
	NX, NY, NZ int
	Z0         int
	Data       []float32
}

// New allocates a zeroed volume of the given dimensions.
func New(nx, ny, nz int) (*Volume, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("volume: dimensions %dx%dx%d must be positive", nx, ny, nz)
	}
	return &Volume{NX: nx, NY: ny, NZ: nz, Data: make([]float32, nx*ny*nz)}, nil
}

// NewSlab allocates a zeroed sub-volume whose first slice is global slice z0.
func NewSlab(nx, ny, nz, z0 int) (*Volume, error) {
	v, err := New(nx, ny, nz)
	if err != nil {
		return nil, err
	}
	if z0 < 0 {
		return nil, fmt.Errorf("volume: slab origin %d must be non-negative", z0)
	}
	v.Z0 = z0
	return v, nil
}

// Voxels returns the number of voxels.
func (v *Volume) Voxels() int { return v.NX * v.NY * v.NZ }

// Bytes returns the storage size in bytes (float32 voxels), the Size_vol of
// Equation 15.
func (v *Volume) Bytes() int64 { return int64(v.Voxels()) * 4 }

// At returns the voxel value at local indices (i,j,k).
func (v *Volume) At(i, j, k int) float32 { return v.Data[(k*v.NY+j)*v.NX+i] }

// Set stores value at local indices (i,j,k).
func (v *Volume) Set(i, j, k int, value float32) { v.Data[(k*v.NY+j)*v.NX+i] = value }

// Slice returns the k-th XY slice as a view into the volume's storage.
func (v *Volume) Slice(k int) []float32 {
	return v.Data[k*v.NY*v.NX : (k+1)*v.NY*v.NX]
}

// Fill sets every voxel to value.
func (v *Volume) Fill(value float32) {
	for i := range v.Data {
		v.Data[i] = value
	}
}

// Zero clears the volume.
func (v *Volume) Zero() { v.Fill(0) }

// Clone returns a deep copy.
func (v *Volume) Clone() *Volume {
	out := &Volume{NX: v.NX, NY: v.NY, NZ: v.NZ, Z0: v.Z0, Data: make([]float32, len(v.Data))}
	copy(out.Data, v.Data)
	return out
}

// Add accumulates o into v element-wise. It is the local reduction operator
// applied by the segmented MPI reduce of Figure 3b; both volumes must have
// identical shape and origin.
func (v *Volume) Add(o *Volume) error {
	if !v.SameShape(o) {
		return fmt.Errorf("volume: shape mismatch %s vs %s", v.ShapeString(), o.ShapeString())
	}
	for i, x := range o.Data {
		v.Data[i] += x
	}
	return nil
}

// SameShape reports whether the two volumes have identical dimensions and
// origin.
func (v *Volume) SameShape(o *Volume) bool {
	return v.NX == o.NX && v.NY == o.NY && v.NZ == o.NZ && v.Z0 == o.Z0
}

// ShapeString renders the dimensions for error messages.
func (v *Volume) ShapeString() string { return v.Header().String() }

// CopySlabFrom copies a slab (whose Z0/NZ window must lie inside v) into the
// corresponding slices of v. It is the final assembly step that the store
// stage performs when writing sub-volumes into the aggregate output.
func (v *Volume) CopySlabFrom(slab *Volume) error {
	if slab.NX != v.NX || slab.NY != v.NY {
		return fmt.Errorf("volume: slab XY %dx%d does not match %dx%d", slab.NX, slab.NY, v.NX, v.NY)
	}
	if slab.Z0 < v.Z0 || slab.Z0+slab.NZ > v.Z0+v.NZ {
		return fmt.Errorf("volume: slab Z window [%d,%d) outside [%d,%d)",
			slab.Z0, slab.Z0+slab.NZ, v.Z0, v.Z0+v.NZ)
	}
	off := (slab.Z0 - v.Z0) * v.NY * v.NX
	copy(v.Data[off:off+len(slab.Data)], slab.Data)
	return nil
}

// Stats summarises a voxel-wise comparison of two volumes.
type Stats struct {
	RMSE   float64
	MaxAbs float64
	MeanA  float64
	MeanB  float64
}

// Compare computes voxel-wise error statistics between two equally shaped
// volumes. The paper's numerical assessment uses the RMSE against an RTK
// reference with a 1e-5 threshold (Section 6.1); Compare provides the same
// measure for this repository's equivalence and quality tests.
func Compare(a, b *Volume) (Stats, error) {
	if a.NX != b.NX || a.NY != b.NY || a.NZ != b.NZ {
		return Stats{}, errors.New("volume: cannot compare volumes of different dimensions")
	}
	var s Stats
	var sum2, sumA, sumB float64
	for i := range a.Data {
		d := float64(a.Data[i]) - float64(b.Data[i])
		sum2 += d * d
		if ad := math.Abs(d); ad > s.MaxAbs {
			s.MaxAbs = ad
		}
		sumA += float64(a.Data[i])
		sumB += float64(b.Data[i])
	}
	n := float64(len(a.Data))
	s.RMSE = math.Sqrt(sum2 / n)
	s.MeanA = sumA / n
	s.MeanB = sumB / n
	return s, nil
}

// MinMax returns the smallest and largest voxel values.
func (v *Volume) MinMax() (lo, hi float32) {
	if len(v.Data) == 0 {
		return 0, 0
	}
	lo, hi = v.Data[0], v.Data[0]
	for _, x := range v.Data {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
