package projection

import "fmt"

// Image is a single 2-D projection of NV×NU pixels, row-major, as read from
// a detector frame before being interleaved into a Stack.
type Image struct {
	NU, NV int
	Data   []float32
}

// NewImage allocates a zeroed projection image.
func NewImage(nu, nv int) (*Image, error) {
	if nu <= 0 || nv <= 0 {
		return nil, fmt.Errorf("projection: image size %dx%d must be positive", nu, nv)
	}
	return &Image{NU: nu, NV: nv, Data: make([]float32, nu*nv)}, nil
}

// At returns pixel (u, v).
func (im *Image) At(u, v int) float32 { return im.Data[v*im.NU+u] }

// Set stores pixel (u, v).
func (im *Image) Set(u, v int, x float32) { im.Data[v*im.NU+u] = x }

// StitchPair combines a left-offset and a right-offset scan of the same
// object into one wide projection, the acquisition trick of the paper's
// coffee bean dataset (Section 6.1: a 2000-wide detector offset to both
// sides yields stitched projections of Nu=3728 with a 272-pixel overlap).
// The two frames must have equal heights; overlap is the number of columns
// shared between the right edge of left and the left edge of right.
// Within the overlap the frames are blended with a linear ramp, the
// standard feathering that hides residual gain mismatch between scans.
func StitchPair(left, right *Image, overlap int) (*Image, error) {
	if left.NV != right.NV {
		return nil, fmt.Errorf("projection: stitch heights differ: %d vs %d", left.NV, right.NV)
	}
	if overlap <= 0 || overlap > left.NU || overlap > right.NU {
		return nil, fmt.Errorf("projection: overlap %d outside (0, min(%d,%d)]", overlap, left.NU, right.NU)
	}
	nu := left.NU + right.NU - overlap
	out, err := NewImage(nu, left.NV)
	if err != nil {
		return nil, err
	}
	for v := 0; v < left.NV; v++ {
		// Exclusive left region.
		for u := 0; u < left.NU-overlap; u++ {
			out.Set(u, v, left.At(u, v))
		}
		// Feathered overlap.
		for o := 0; o < overlap; o++ {
			w := (float32(o) + 0.5) / float32(overlap) // weight of the right frame
			l := left.At(left.NU-overlap+o, v)
			r := right.At(o, v)
			out.Set(left.NU-overlap+o, v, (1-w)*l+w*r)
		}
		// Exclusive right region.
		for u := overlap; u < right.NU; u++ {
			out.Set(left.NU-overlap+u, v, right.At(u, v))
		}
	}
	return out, nil
}

// ToImage extracts local projection p of the stack as a standalone image
// covering the stack's rows.
func (s *Stack) ToImage(p int) (*Image, error) {
	if p < 0 || p >= s.NP {
		return nil, fmt.Errorf("projection: projection %d outside [0,%d)", p, s.NP)
	}
	im, err := NewImage(s.NU, s.NV)
	if err != nil {
		return nil, err
	}
	for v := 0; v < s.NV; v++ {
		row, _ := s.Row(s.V0+v, p)
		copy(im.Data[v*s.NU:(v+1)*s.NU], row)
	}
	return im, nil
}
