package backproject

import (
	"math"
	"unsafe"
)

// The AVX2 path — what KernelRecurrence dispatches to on hosts that have
// it — is the recurrence kernel's arithmetic restructured for 8-wide
// execution: the three homogeneous coordinate
// lanes advance as whole vectors, the per-sample divide becomes a
// hardware reciprocal approximation refined by one Newton–Raphson step,
// and the 2×2 bilinear footprints load through gathers. Like the
// recurrence kernel it re-anchors at fixed *absolute* columns b = i&^31,
// which makes the coordinate at column i a pure function of (i, row
// constants) — the property that keeps every slab/window decomposition of
// the same reconstruction bit-identical.
//
// The SIMD coordinate contract (the value every consumer must agree on):
//
//	anchor  b  = i &^ (reanchorPeriod−1)
//	lane    j  = i & 7                       (8 lanes per vector)
//	init       = op·float32(b+j) + oc        (separate mul and add — no FMA)
//	advance    = + op·8 per 8-column group   (power-of-two step: exact)
//	value(i)   = init + ((i−b)>>3) step additions
//	rz         = rcp(w)·(2 − w·rcp(w))       (rcp = x86 RCPPS lane approx)
//	x, y       = u·rz, v·rz;  weight = rz·rz
//
// simdCoords and rcpNR are the scalar transcription of that contract:
// vector lanes are IEEE-754 scalars, Go's amd64 backend never fuses
// multiply-adds, and RCPSS produces the same approximation as the
// corresponding RCPPS lane, so the Go border path below and the span
// predicates (footprint) reproduce the assembly's values bit-for-bit on the
// same machine. The
// refined reciprocal's relative error is ≤ ~2⁻²² — below the exact
// divide's half-ulp by only a factor of two — so the drift analysis
// behind predicateSlack and the parity gates carries over unchanged (the
// simd lane drift, ≤ 3 step additions before a re-anchor, is in fact
// smaller than the recurrence kernel's ≤ 15).

// simdLanes is the vector width of the AVX2 kernel: 8 float32 lanes.
const simdLanes = 8

// simdCoords returns the simd-contract homogeneous coordinates at absolute
// column i — bit-for-bit the values lane i&7 of the assembly kernel holds
// when its group reaches i: direct evaluation at the anchor offset by the
// lane index, then (i−b)/8 exact-step additions.
func simdCoords(i int, ax, ay, az, xc, yc, zc float32) (u, v, w float32) {
	b := i &^ (reanchorPeriod - 1)
	l := float32(b | (i & (simdLanes - 1)))
	u = ax*l + xc
	v = ay*l + yc
	w = az*l + zc
	ax8, ay8, az8 := ax*simdLanes, ay*simdLanes, az*simdLanes
	for t := (i - b) >> 3; t > 0; t-- {
		u += ax8
		v += ay8
		w += az8
	}
	return u, v, w
}

// guardedColsSIMD back-projects columns [g0,g1) through the texture-border
// gather with the simd arithmetic — the pure-Go reference for the assembly
// span kernel. simdCoords evaluates each column's lane values directly
// (the contract makes them a pure function of the column index), rcpNR
// repeats the vector reciprocal, and the guarded 2×2 sample mirrors
// replayGuarded: every neighbour access tested against the readable
// window, out-of-window neighbours contributing exactly +0. A resident
// column therefore computes bit-identically to the assembly fast body —
// the guards only decide whether a load happens, never its value.
// Returns the number of re-anchor segments, as rowRec counts them for the
// assembly.
func (a *projAccess) guardedColsSIMD(out []float32, s, g0, g1 int, ax, ay, az, xc, yc, zc float32) int64 {
	if g0 >= g1 {
		return 0
	}
	data := a.data[s*a.sStride:]
	lo, hi, nuRow := a.lo, a.hi, a.nu
	// Same analytically-discharged bounds as replayGuarded: the guards
	// below establish exactly what the compiler would re-check per access.
	dp := unsafe.Pointer(unsafe.SliceData(data))
	rp := unsafe.Pointer(unsafe.SliceData(a.rowOff))
	for i := g0; i < g1; i++ {
		u, v, w := simdCoords(i, ax, ay, az, xc, yc, zc)
		rz := rcpNR(w)
		x := u * rz
		y := v * rz
		iu := int(floor32(x))
		iv := int(floor32(y))
		eu := x - float32(iu)
		ev := y - float32(iv)
		var p00, p01, p10, p11 float32
		if iv >= lo && iv < hi {
			r := *(*int)(unsafe.Add(rp, uintptr(iv-lo)*8))
			if iu >= 0 && iu < nuRow {
				p00 = *(*float32)(unsafe.Add(dp, uintptr(r+iu)*4))
			}
			if iu+1 >= 0 && iu+1 < nuRow {
				p01 = *(*float32)(unsafe.Add(dp, uintptr(r+iu+1)*4))
			}
		}
		if iv+1 >= lo && iv+1 < hi {
			r := *(*int)(unsafe.Add(rp, uintptr(iv+1-lo)*8))
			if iu >= 0 && iu < nuRow {
				p10 = *(*float32)(unsafe.Add(dp, uintptr(r+iu)*4))
			}
			if iu+1 >= 0 && iu+1 < nuRow {
				p11 = *(*float32)(unsafe.Add(dp, uintptr(r+iu+1)*4))
			}
		}
		t1 := p00 + eu*(p01-p00)
		t2 := p10 + eu*(p11-p10)
		out[i] += rz * rz * (t1 + ev*(t2-t1))
	}
	return reanchorSegments(g0, g1)
}

// simdLaneCounts classifies the interior columns [f0,f1) by how the 8-wide
// kernel executes them: groups aligned to absolute 8-column boundaries that
// are fully covered run as whole vectors; columns in partially covered
// groups run under a lane mask (the "scalar tail"). Pure arithmetic over
// the span — the assembly does not count, the Go side derives the same
// classification it is known to use.
func simdLaneCounts(f0, f1 int) (full, tail int64) {
	if f0 >= f1 {
		return 0, 0
	}
	// Closed form: full groups live between the first aligned boundary at
	// or above f0 and the last at or below f1; everything else is tail.
	lo := (f0 + simdLanes - 1) &^ (simdLanes - 1)
	hi := f1 &^ (simdLanes - 1)
	if hi <= lo {
		return 0, int64(f1 - f0)
	}
	return int64(hi-lo) / simdLanes, int64((f1 - f0) - (hi - lo))
}

// prepareSIMD builds the int32 row-offset table the gather instructions
// index through (VPGATHERDD consumes 32-bit indices). It reports false —
// the launch runs the scalar path — when any storage offset could overflow
// an int32; at 4 bytes per sample that is a >8 GiB projection buffer, far
// beyond this host-resident design.
func (a *projAccess) prepareSIMD() bool {
	if int64(len(a.data)) > math.MaxInt32 {
		return false
	}
	if a.rowIdx32 == nil {
		idx := make([]int32, len(a.rowOff))
		for i, r := range a.rowOff {
			idx[i] = int32(r)
			a.rowMax = max(a.rowMax, r)
		}
		a.rowIdx32 = idx
	}
	return true
}
