// Package projection holds cone-beam projection data in the layout consumed
// by the streaming back-projection kernel and implements the input side of
// the paper's two-dimensional decomposition (Figure 3a): splitting the
// detector-row axis Nv via the row ranges of Algorithm 2 and the angle axis
// Np into equal rank shares, including the differential updates of
// Equations 6–7 and the offset-detector stitching of Section 6.1.
package projection

import (
	"fmt"

	"distfdk/internal/geometry"
)

// Stack is a block of projection data stored row-major over (v, p, u): all
// NU detector samples of projection p at detector row v are contiguous, and
// consecutive projections of the same row follow each other. This is
// exactly the 3-D texture layout of Listing 1 (x=u, y=p, z=v), chosen so a
// detector-row range is a contiguous byte range — the property that makes
// the 2-D decomposition's host↔device transfers and differential updates
// single memcpys.
type Stack struct {
	NU int // detector columns
	NP int // projections in this block
	NV int // detector rows in this block
	V0 int // global detector row of local row 0
	P0 int // global projection index of local projection 0

	Data []float32 // len = NV*NP*NU, indexed [(v*NP+p)*NU + u]
}

// NewStack allocates a zeroed stack.
func NewStack(nu, np, nv int) (*Stack, error) {
	if nu <= 0 || np <= 0 || nv <= 0 {
		return nil, fmt.Errorf("projection: dimensions %dx%dx%d must be positive", nu, np, nv)
	}
	return &Stack{NU: nu, NP: np, NV: nv, Data: make([]float32, nu*np*nv)}, nil
}

// Pixels returns the number of stored samples.
func (s *Stack) Pixels() int { return s.NU * s.NP * s.NV }

// Bytes returns the storage size in bytes.
func (s *Stack) Bytes() int64 { return int64(s.Pixels()) * 4 }

// Rows returns the global detector-row range held by the stack.
func (s *Stack) Rows() geometry.RowRange { return geometry.RowRange{Lo: s.V0, Hi: s.V0 + s.NV} }

// Row returns the NU samples of projection p (local index) at global
// detector row v as a view into the stack's storage.
func (s *Stack) Row(v, p int) ([]float32, error) {
	lv := v - s.V0
	if lv < 0 || lv >= s.NV || p < 0 || p >= s.NP {
		return nil, fmt.Errorf("projection: row (v=%d,p=%d) outside stack rows %v × %d projections", v, p, s.Rows(), s.NP)
	}
	off := (lv*s.NP + p) * s.NU
	return s.Data[off : off+s.NU], nil
}

// At returns the sample at global row v, local projection p, column u.
func (s *Stack) At(v, p, u int) float32 {
	return s.Data[((v-s.V0)*s.NP+p)*s.NU+u]
}

// Set stores a sample at global row v, local projection p, column u.
func (s *Stack) Set(v, p, u int, x float32) {
	s.Data[((v-s.V0)*s.NP+p)*s.NU+u] = x
}

// ExtractRows copies the global row range rows (which must lie inside the
// stack) into a new stack carrying the same projection window. This is the
// host-side "partial projection" that a rank ships to its device.
func (s *Stack) ExtractRows(rows geometry.RowRange) (*Stack, error) {
	if rows.IsEmpty() {
		return nil, fmt.Errorf("projection: empty row range %v", rows)
	}
	if rows.Lo < s.V0 || rows.Hi > s.V0+s.NV {
		return nil, fmt.Errorf("projection: rows %v outside stack rows %v", rows, s.Rows())
	}
	out := &Stack{NU: s.NU, NP: s.NP, NV: rows.Len(), V0: rows.Lo, P0: s.P0}
	lo := (rows.Lo - s.V0) * s.NP * s.NU
	hi := (rows.Hi - s.V0) * s.NP * s.NU
	out.Data = append([]float32(nil), s.Data[lo:hi]...)
	return out, nil
}

// ExtractProjections copies the local projection index window [pLo, pHi)
// into a new stack covering the same rows: the Np-axis split of
// Section 3.1.3, which is exact and overlap-free.
func (s *Stack) ExtractProjections(pLo, pHi int) (*Stack, error) {
	if pLo < 0 || pHi > s.NP || pLo >= pHi {
		return nil, fmt.Errorf("projection: window [%d,%d) outside [0,%d)", pLo, pHi, s.NP)
	}
	np := pHi - pLo
	out := &Stack{NU: s.NU, NP: np, NV: s.NV, V0: s.V0, P0: s.P0 + pLo}
	out.Data = make([]float32, s.NU*np*s.NV)
	for v := 0; v < s.NV; v++ {
		src := s.Data[(v*s.NP+pLo)*s.NU : (v*s.NP+pHi)*s.NU]
		copy(out.Data[v*np*s.NU:(v+1)*np*s.NU], src)
	}
	return out, nil
}

// Source supplies partial projection data on demand. The load stage of the
// pipeline asks for exactly the (row range × projection window) a slab
// needs, which is how the decomposition achieves its O(Nu) input lower
// bound (Table 2, "this work").
type Source interface {
	// Dims returns the full dataset dimensions (NU, NP, NV).
	Dims() (nu, np, nv int)
	// LoadRows returns the stack holding detector rows `rows` of the
	// global projection window [pLo, pHi).
	LoadRows(rows geometry.RowRange, pLo, pHi int) (*Stack, error)
}

// MemorySource serves partial loads from a complete in-memory stack.
type MemorySource struct {
	Full *Stack
}

// Dims implements Source.
func (m *MemorySource) Dims() (int, int, int) { return m.Full.NU, m.Full.NP, m.Full.NV }

// LoadRows implements Source.
func (m *MemorySource) LoadRows(rows geometry.RowRange, pLo, pHi int) (*Stack, error) {
	if m.Full.V0 != 0 || m.Full.P0 != 0 {
		return nil, fmt.Errorf("projection: MemorySource requires a full stack at origin")
	}
	byRows, err := m.Full.ExtractRows(rows)
	if err != nil {
		return nil, err
	}
	if pLo == 0 && pHi == m.Full.NP {
		return byRows, nil
	}
	return byRows.ExtractProjections(pLo, pHi)
}
