package device

import (
	"fmt"
	"time"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
)

// ProjRing is the device-resident projection row store of Algorithm 3: a
// 3-D buffer of H detector rows × NP projections × NU columns addressed
// modulo H in the row dimension (`Z = z % dimZ` in Listing 1's devPixel).
// Consecutive volume slabs need overlapping, monotonically increasing row
// ranges (Figure 4); the ring keeps the overlap resident and accepts only
// the differential rows, splitting a wrapping load into two copies exactly
// like Algorithm 3 lines 10–15. Each detector row therefore crosses the
// host↔device link exactly once per reconstruction — the property that
// distinguishes the paper from batch-decomposition frameworks that re-ship
// projections for every sub-volume.
//
// Storage is a Layout: Listing 1's devPixel order with the texture border
// stored as data. Kernels address samples only through RowBase, ProjStride
// and ZeroBase, so another arrangement is a change inside this package.
type ProjRing struct {
	dev *Device
	Layout

	data []float32

	// valid is unguarded: a ring is mutated and read by one goroutine at a
	// time (the rank program's ring-owning stage), never concurrently.
	valid geometry.RowRange // global rows currently resident
}

// Layout is the addressing of a row store of H slots × NP projections × NU
// columns in devPixel order — the NP projections of one detector row are
// adjacent — that holds the CUDA texture border as data: every run of NU
// samples lies at stride NU+2, so that two zero floats precede and follow it
// (neighbours share them), one further slot is never written (the zero slot:
// what a row outside the resident range reads as), and WindowFloats − 2
// floats of slack follow the last apron. A kernel may therefore read
// columns [−2, NU+2) of any slot, and the WindowFloats floats starting at
// any column in [−2, NU], without a guard.
type Layout struct {
	NU, NP int
	H      int // slots: the ring depth in rows
}

// WindowFloats is the widest contiguous read any kernel spelling makes
// from one column of a row: the 16-lane back-projection's window, sixteen
// footprint origins and the right neighbour of the last (the 8-lane one
// reads 9). Started at column NU, the greatest origin a guarded lane
// clamps to, it ends WindowFloats − 2 floats past the row's right apron,
// which the slack after the last row keeps readable.
const WindowFloats = 17

// ProjStride returns the storage distance between consecutive projections
// of one detector row.
func (l Layout) ProjStride() int { return l.NU + 2 }

// RowBase returns the storage offset of global row v (projection 0); the
// sample (v, p, u) lives at RowBase(v) + p·ProjStride() + u. Callers must
// have verified residency for v.
func (l Layout) RowBase(v int) int { return (v%l.H)*l.NP*(l.NU+2) + 2 }

// ZeroBase is the RowBase of the zero slot.
func (l Layout) ZeroBase() int { return l.H*l.NP*(l.NU+2) + 2 }

// Len returns the floats a store of this layout occupies: apron, zero slot
// and slack included. Bytes is its device-memory footprint.
func (l Layout) Len() int     { return (l.H+1)*l.NP*(l.NU+2) + 2 + WindowFloats - 2 }
func (l Layout) Bytes() int64 { return int64(l.Len()) * 4 }

// Store copies the NP·NU samples of global row v, projection-major, to
// their place in data.
func (l Layout) Store(data []float32, v int, src []float32) {
	for p, base := 0, l.RowBase(v); p < l.NP; p, base = p+1, base+l.NU+2 {
		copy(data[base:base+l.NU], src[p*l.NU:])
	}
}

// NewProjRing allocates a ring of depth h rows on the device, charging its
// memory budget what the layout occupies.
func NewProjRing(dev *Device, nu, np, h int) (*ProjRing, error) {
	if nu <= 0 || np <= 0 || h <= 0 {
		return nil, fmt.Errorf("device: ring dimensions %dx%dx%d must be positive", nu, np, h)
	}
	r := &ProjRing{dev: dev, Layout: Layout{NU: nu, NP: np, H: h}}
	if err := dev.Alloc(r.Bytes()); err != nil {
		return nil, fmt.Errorf("device: projection ring of %d rows (%d bytes): %w", h, r.Bytes(), err)
	}
	r.data = make([]float32, r.Len())
	return r, nil
}

// Close releases the ring's device memory.
func (r *ProjRing) Close() {
	if r.data != nil {
		r.dev.Free(r.Bytes())
		r.data = nil
	}
}

// Valid returns the global row range currently resident.
func (r *ProjRing) Valid() geometry.RowRange { return r.valid }

// Reset discards all resident rows. The slab driver uses it when
// consecutive slabs need disjoint row ranges (possible for very thin
// detectors), where there is no overlap to preserve.
func (r *ProjRing) Reset() {
	r.dev.ringEvictedRows.Add(int64(r.valid.Len()))
	r.dev.ringResets.Inc()
	r.dev.ringResident.Set(0)
	r.valid = geometry.RowRange{}
}

// Release drops resident rows below upTo, making their slots reusable. It
// is called when advancing to the next slab, whose required range starts at
// upTo (= a_{i+1}), once the previous slab has been back-projected.
func (r *ProjRing) Release(upTo int) {
	if upTo > r.valid.Lo {
		newLo := min(upTo, r.valid.Hi)
		r.dev.ringEvictedRows.Add(int64(newLo - r.valid.Lo))
		r.dev.ringResident.Set(int64(r.valid.Hi - newLo))
		r.valid.Lo = newLo
	}
}

// LoadRows copies the global detector rows `rows` from the host stack into
// the ring (the host→device Memcpy3D of Algorithm 3). The stack must
// contain the rows and share the ring's NU/NP extents. Loads must extend
// the resident range contiguously upward and may not evict rows that have
// not been Released; both violations are programming errors in the caller's
// slab schedule and are reported rather than silently corrupting data.
func (r *ProjRing) LoadRows(src *projection.Stack, rows geometry.RowRange) error {
	if rows.IsEmpty() {
		return nil
	}
	if src.NU != r.NU || src.NP != r.NP {
		return fmt.Errorf("device: stack %dx%d does not match ring %dx%d", src.NU, src.NP, r.NU, r.NP)
	}
	if rows.Lo < src.V0 || rows.Hi > src.V0+src.NV {
		return fmt.Errorf("device: rows %v not present in host stack %v", rows, src.Rows())
	}
	newValid := r.valid.Union(rows)
	if !r.valid.IsEmpty() && rows.Lo > r.valid.Hi {
		return fmt.Errorf("device: load %v leaves a gap after resident %v", rows, r.valid)
	}
	if newValid.Len() > r.H {
		return fmt.Errorf("device: resident range %v (%d rows) exceeds ring depth %d", newValid, newValid.Len(), r.H)
	}
	// Overwriting rows that are still valid (not Released) is an
	// eviction bug.
	if !r.valid.IsEmpty() && rows.Lo < r.valid.Hi {
		return fmt.Errorf("device: load %v overlaps resident rows %v", rows, r.valid)
	}

	// Copy row by row through the modular mapping.
	t0 := time.Now()
	for v := rows.Lo; v < rows.Hi; v++ {
		r.Store(r.data, v, src.Data[(v-src.V0)*src.NP*src.NU:])
	}
	// Contiguous global rows map to at most two contiguous slot spans (the
	// split copy of Algorithm 3).
	ops := int64(1)
	if (rows.Lo%r.H)+rows.Len() > r.H {
		ops = 2
	}
	d := r.dev
	d.ringLoadNs.Add(int64(time.Since(t0)))
	d.ringLoadRows.Add(int64(rows.Len()))
	d.ringLoadOps.Add(ops)
	d.ringResident.Set(int64(newValid.Len()))
	d.recordH2D(int64(r.NU)*int64(r.NP)*4*int64(rows.Len()), ops)
	r.valid = newValid
	return r.checkInvariant()
}

// checkInvariant verifies the resident range fits the ring depth.
func (r *ProjRing) checkInvariant() error {
	if r.valid.Len() > r.H {
		return fmt.Errorf("device: invariant violated: %v exceeds depth %d", r.valid, r.H)
	}
	return nil
}

// Row returns the resident row v of projection p as a slice view, capped so
// that no append reaches the apron, erroring if the row is not resident.
// The back-projection kernel uses RawData for its inner loop; Row exists for
// verification and tests.
func (r *ProjRing) Row(v, p int) ([]float32, error) {
	if valid := r.Valid(); !valid.Contains(v) {
		return nil, fmt.Errorf("device: row %d not resident (valid %v)", v, valid)
	}
	if p < 0 || p >= r.NP {
		return nil, fmt.Errorf("device: projection %d outside [0,%d)", p, r.NP)
	}
	off := r.RowBase(v) + p*r.ProjStride()
	return r.data[off : off+r.NU : off+r.NU], nil
}

// RawData exposes the ring storage for the kernel inner loop, which indexes
// it as data[RowBase(v)+p·ProjStride()+u] — the devPixel addressing of
// Listing 1. Callers must have verified residency via Valid() for the row
// range they touch.
func (r *ProjRing) RawData() []float32 { return r.data }
