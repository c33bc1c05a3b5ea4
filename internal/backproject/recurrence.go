package backproject

import (
	"math"
	"unsafe"

	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The recurrence kernel exploits that the homogeneous detector coordinates
// of one output row are affine in the column index i:
//
//	u(i) = ax·i + xc,  v(i) = ay·i + yc,  w(i) = az·i + zc
//
// so instead of re-evaluating three multiply-adds per sample it steps two
// running lanes by the exact float32 constants 2·ax, 2·ay, 2·az (a
// power-of-two scaling, so the step itself carries no rounding error).
// Accumulated addition drift is bounded by re-anchoring every
// reanchorPeriod columns: the lanes are recomputed from the direct
// expression at fixed absolute columns i ≡ 0 (mod reanchorPeriod). Anchors
// at *absolute* positions — never at span or slab boundaries — make the
// recurrence value at column i a pure function of (i, row constants):
// whatever decomposition, worker count or blocking produced the row, every
// path (interior fast path, border path, residency predicate, support
// probe) sees identical float32 coordinates, which is what keeps
// streaming ≡ batch ≡ resume bit-identical under this kernel.

// reanchorPeriod is the recurrence re-anchor interval K: lanes are
// recomputed from the direct affine expression at columns i ≡ 0 (mod K).
// Must be a power of two and a multiple of both walks' widths (two scalar
// lanes, eight vector lanes). At K = 32 the worst-case drift is ≤ 15 lane
// additions (≤ 3 on the 8-wide path) ≈ 15·ε·max|u| — orders of magnitude
// below the half-pixel margin the span solver guarantees and the
// quarter-pixel slack of the fast residency predicates — while the
// catch-up loop that reproduces a lane value at an arbitrary column (span
// starts, border probes) stays ≤ 15 iterations.
const reanchorPeriod = 32

// predicateSlack is the margin (in detector pixels) by which the *direct*
// float32 evaluation must clear a residency/zero boundary for the fast
// predicates below to decide without consulting the recurrence arithmetic.
// It dominates the sum of the direct evaluation's rounding and the
// recurrence drift (both ≤ ~1e-3 px at detector-scale coordinates), so a
// slack-clearing direct value proves the recurrence value is on the same
// side of the boundary.
const predicateSlack = 0.25

// ParityGateRMSE and ParityGateMaxAbs bound the volume difference between
// the recurrence and exact kernels on identical inputs, for data of unit
// scale. The recurrence's coordinate drift before a re-anchor is ≤ ~18
// additions' rounding ≈ 1e-6·|u| ≈ 5e-5 detector pixels at test-geometry
// coordinate magnitudes; white-noise projections (the worst case — O(1)
// bilinear gradient per pixel) turn that into ~2e-5 RMSE per unit of data
// scale. The gates sit 2–3× above every measured geometry while remaining
// three orders of magnitude below physical signal. The property tests and
// experiments.TestKernelParity both enforce them.
const (
	ParityGateRMSE   = 5e-5
	ParityGateMaxAbs = 5e-4
)

// projBlock is the s-blocking factor: the (k, j) voxel sweep is repeated
// per block of projBlock projections so the detector-row window those
// projections touch stays cache-resident across the sweep instead of
// streaming the whole ring per output row. Because per-voxel accumulation
// still visits s in ascending order across blocks, the result is
// bit-identical for every block size.
const projBlock = 16

// zBlock is the greatest height of a k-tile: the adjacent slices that a
// (row j, projection s) pair is back-projected into together, so the
// span solve and everything else that does not depend on z is done once
// for all of them, and the detector rows they project to stay hot while
// the j sweep revisits them. Like projBlock it only reorders independent
// output rows, never the per-voxel s order.
const zBlock = 8

// recCoords returns the recurrence-evaluated homogeneous coordinates at
// absolute column i — bit-for-bit the values the lane walker holds when it
// reaches i: anchor at b = i&^(K−1) offset by the lane index, then
// (i−b)/2 exact-step additions. Border columns, residency predicates and
// the drift property test all evaluate through here so every consumer of
// "the coordinate at column i" agrees to the last ulp.
func recCoords(i int, ax, ay, az, xc, yc, zc float32) (u, v, w float32) {
	b := i &^ (reanchorPeriod - 1)
	l := b | (i & 1)
	fl := float32(l)
	u = ax*fl + xc
	v = ay*fl + yc
	w = az*fl + zc
	ax2, ay2, az2 := ax*2, ay*2, az*2
	for t := (i - b) >> 1; t > 0; t-- {
		u += ax2
		v += ay2
		w += az2
	}
	return u, v, w
}

// footprint returns the detector pixel (iu, iv) at the origin of column i's
// 2×2 footprint and whether its weight rz² is finite, with the exact
// float32 values the kernel computes for the column: the recurrence
// arithmetic's (simd=false) or the 8-wide contract's (simd=true).
func footprint(i int, ax, ay, az, xc, yc, zc float32, simd bool) (iu, iv int, finite bool) {
	var u, v, w, rz float32
	if simd {
		u, v, w = simdCoords(i, ax, ay, az, xc, yc, zc)
		rz = rcpNR(w)
	} else {
		u, v, w = recCoords(i, ax, ay, az, xc, yc, zc)
		rz = 1 / w
	}
	return int(floor32(u * rz)), int(floor32(v * rz)), rz*rz < math.MaxFloat32
}

// resident reports whether the 2×2 footprint at (iu, iv) lies wholly inside
// the readable window.
func (a *projAccess) resident(iu, iv int) bool {
	return iu >= 0 && iu+1 < a.nu && iv >= a.lo && iv+1 < a.hi
}

// interiorResidentFast decides whether column i's footprint is resident in
// every slice of a k-tile whose v constants lie in [ya, yb] (ya == yb for a
// single row), without the lane catch-up: a direct float32 evaluation
// clearing every boundary by predicateSlack proves the kernel-arithmetic
// value is resident too — the slack dominates both kernels' drift (the simd
// lane drift of ≤ 3 step additions plus the refined reciprocal's 2⁻²²
// relative error is even smaller than the recurrence's). On the rare
// boundary-grazing column it falls back to the footprint the requested
// arithmetic computes in the tile's two end slices (an accepted column has
// x, y ≥ 0, so the assembly's truncating conversion equals floor wherever
// it is allowed to truncate). Those speak for the slices between them:
// every float32 operation from the slice index to iv is monotone, so a
// middle slice's iv lies between the ends', and the resident rows are an
// interval.
func (a *projAccess) interiorResidentFast(i int, ax, ay, az, xc, ya, yb, zc float32, simd bool) bool {
	fi := float32(i)
	w := az*fi + zc
	if w > 0 {
		rz := 1 / w
		x := (ax*fi + xc) * rz
		v := ay * fi
		if b := &a.win.resident; x >= b[0] && x <= b[1] && (v+ya)*rz >= b[2] && (v+yb)*rz <= b[3] {
			return true
		}
	}
	if iu, iv, _ := footprint(i, ax, ay, az, xc, ya, zc, simd); !a.resident(iu, iv) {
		return false
	}
	if ya == yb {
		return true
	}
	iu, iv, _ := footprint(i, ax, ay, az, xc, yb, zc, simd)
	return a.resident(iu, iv)
}

// zeroContribFast reports whether column i's contribution is provably
// exactly +0 in every slice of a k-tile whose v constants lie in [ya, yb]:
// all four bilinear neighbours lie outside the readable window
// (texture-border zeros) and the distance weight rz² is finite, so
// rz²·0 = +0 and skipping the column leaves the accumulator bit-identical
// (out[i] is never −0: it starts +0 and round-to-nearest addition cannot
// produce −0 from a +0 running sum). A direct float32 evaluation past a
// zero boundary by predicateSlack proves the kernel-arithmetic value
// (recurrence or simd, both drifting far less than the slack) is past it
// too; boundary-grazing columns are decided by the footprint the requested
// arithmetic computes, and an overflowing weight — rcpNR of a degenerate w
// is infinite or NaN — is evaluated rather than reasoned about as Inf·0:
// skipping always needs proof, evaluating is always safe. A column is zero
// in the whole tile when x misses the window, or when the highest slice is
// still below it, or the lowest already above it — the two ends may not
// miss it on opposite sides, because the slices between them then cross it.
func (a *projAccess) zeroContribFast(i int, ax, ay, az, xc, ya, yb, zc float32, simd bool) bool {
	fi := float32(i)
	w := az*fi + zc
	if w > 0 {
		rz := 1 / w
		// Generous headroom below MaxFloat32: the kernel rz² differs from
		// this direct one by a relative drift ~1e-7, so requiring the
		// direct weight comfortably finite proves the kernel weight
		// finite too.
		if !(rz*rz < 1e38) {
			return false // evaluating a column is always safe; skipping needs proof
		}
		x := (ax*fi + xc) * rz
		v := ay * fi
		if b := &a.win.zero; x <= b[0] || x >= b[1] || (v+yb)*rz <= b[2] || (v+ya)*rz >= b[3] {
			return true
		}
	}
	iu, iv, finite := footprint(i, ax, ay, az, xc, yb, zc, simd)
	if !finite {
		return false
	}
	if iu < -1 || iu >= a.nu || iv < a.lo-1 {
		return true
	}
	if ya != yb {
		_, iv, _ = footprint(i, ax, ay, az, xc, ya, zc, simd)
	}
	return iv >= a.hi
}

// spanWindow is the readable window [0,nu) × [lo,hi) in the forms a
// launch's span decisions compare against. It depends on (nu, lo, hi) only,
// so accumulateSlab derives it once instead of once per boundary test.
type spanWindow struct {
	// support and interior are supportBounds and interiorBounds; accept is
	// the interior tightened past float64 product rounding for the
	// fully-interior pre-accept.
	support, interior, accept [4]float64
	// resident and zero are the boundaries a direct float32 evaluation must
	// clear by predicateSlack for the fast predicates to decide.
	resident, zero [4]float32
}

func (a *projAccess) newSpanWindow() spanWindow {
	const md = 0.5 + 1e-9
	const d = predicateSlack
	return spanWindow{
		support:  a.supportBounds(),
		interior: a.interiorBounds(),
		accept:   [4]float64{md, float64(a.nu-1) - md, float64(a.lo) + md, float64(a.hi-1) - md},
		resident: [4]float32{d, float32(a.nu-1) - d, float32(a.lo) + d, float32(a.hi-1) - d},
		zero:     [4]float32{-1 - d, float32(a.nu) + d, float32(a.lo-1) - d, float32(a.hi) + d},
	}
}

// projConsts is what the (row, projection, k-tile) launches of one
// projection share across the rows of a slab: the matrix, the float64 forms
// of its column coefficients that the span solves work in, and the assembly
// kernel's argument block with its per-projection fields filled. One is
// built per worker and projection of a block, outside the (k, j) sweep.
type projConsts struct {
	s int
	m geometry.Mat34x4
	// zInvariant is the launch-time proof that u and w do not depend on
	// the slice: the matrix's z entries in the u and w rows are exactly
	// zero, so a zero times a slice index (never negative) adds the same
	// signed zero to xc and zc in every slice and only v moves with z.
	// Every geometry this repository builds has it; a tilted detector does
	// not, and its tiles are one slice high.
	zInvariant    bool
	axd, ayd, azd float64
	// axn, ayn, azn are the changes of u, v and w from column 0 to nx−1.
	axn, ayn, azn float64
	// support and interior are the clipCoefs of the window's two boundary
	// sets.
	support, interior [4]float64
	args              simdRowArgs
}

func (a *projAccess) newProjConsts(s int, m *geometry.Mat34x4, nx int, simd bool) projConsts {
	pc := projConsts{s: s, m: *m, zInvariant: m.R0[2] == 0 && m.R2[2] == 0}
	pc.axd, pc.ayd, pc.azd = float64(m.R0[0]), float64(m.R1[0]), float64(m.R2[0])
	last := float64(nx - 1)
	pc.axn, pc.ayn, pc.azn = pc.axd*last, pc.ayd*last, pc.azd*last
	pc.support = clipCoefs(pc.axd, pc.ayd, pc.azd, &a.win.support)
	pc.interior = clipCoefs(pc.axd, pc.ayd, pc.azd, &a.win.interior)
	if simd {
		a.initSpanArgs(&pc.args, s, m.R0[0], m.R1[0], m.R2[0])
	}
	return pc
}

// accumulateSlicesRec back-projects the k slices owned by worker w with the
// recurrence kernel (simd=false) or its 8-wide AVX2 restructuring
// (simd=true). Loop order is s-block → k-tile → j → s → k, i.e. the voxel
// sweep is repeated per small group of projections (cache blocking) and a
// (row, projection) pair visits the slices of its tile innermost, where
// only v is new; per tile the column loop is clipped to its detector
// support and split into border strips around the fused interior.
func (a *projAccess) accumulateSlicesRec(w, workers int, mats []geometry.Mat34x4, slab *volume.Volume, ctr *kernelCounters, simd bool) {
	nx := slab.NX
	stride := slab.NY * nx
	// The slab is cut into tiles of adjacent slices — adjacent, so that a
	// tile's sweep of v, which its spans must cover, is as short as its
	// height allows — dealt to the workers in turn: the fewest tiles of at
	// most zBlock slices that come to a whole number of rounds, at equal
	// heights.
	tiles := workers * ((slab.NZ + workers*zBlock - 1) / (workers * zBlock))
	th := (slab.NZ + tiles - 1) / tiles
	var pcs [projBlock]projConsts
	var kfs [zBlock]float32
	for sb := 0; sb < a.np; sb += projBlock {
		sEnd := sb + projBlock
		if sEnd > a.np {
			sEnd = a.np
		}
		block := pcs[:sEnd-sb]
		for i := range block {
			block[i] = a.newProjConsts(sb+i, &mats[sb+i], nx, simd)
		}
		for kt := w * th; kt < slab.NZ; kt += workers * th {
			kf := kfs[:0]
			for k := kt; k < slab.NZ && len(kf) < th; k++ {
				kf = append(kf, float32(slab.Z0+k))
			}
			for j := 0; j < slab.NY; j++ {
				rows := slab.Data[(kt*slab.NY+j)*nx:]
				for i := range block {
					a.tileRec(rows, stride, &block[i], float32(j), kf, nx, ctr, simd)
				}
			}
		}
	}
}

// tileRec back-projects one projection into volume row jf of the slices kf
// of a k-tile. The slices are cut into launches that share xc and zc: all
// of them when the projection is zInvariant, one slice each otherwise —
// the same code with tile height 1.
func (a *projAccess) tileRec(rows []float32, stride int, pc *projConsts, jf float32, kf []float32, nx int, ctr *kernelCounters, simd bool) {
	m := &pc.m
	var ycs [zBlock]float32
	for t, k := range kf {
		ycs[t] = m.R1[1]*jf + m.R1[2]*k + m.R1[3]
	}
	h := 1
	if pc.zInvariant {
		h = len(kf)
	}
	for t := 0; t < len(kf); t += h {
		xc := m.R0[1]*jf + m.R0[2]*kf[t] + m.R0[3]
		zc := m.R2[1]*jf + m.R2[2]*kf[t] + m.R2[3]
		a.rowRec(rows[t*stride:], stride, pc, xc, zc, ycs[t:t+h], nx, ctr, simd)
	}
}

// rowSpans decides how one (output row, projection) pair is walked in the
// slices of a k-tile that share xc and zc and whose v constants lie between
// ya and yb, those of the tile's two end slices (ya == yb: one slice): the
// supported columns [c0,c1), outside which every contribution in every
// slice is exactly +0, and inside them the interior [i0,i1) whose
// footprints are fully resident in every slice. v, and with it y, is
// monotone in the slice index at every column, so the tile's range of y is
// spanned by its end slices: the interior is where the lowest slice clears
// the window's lower edge and the highest its upper edge, the support where
// the highest slice reaches the lower edge and the lowest the upper one. A
// slice covers columns of the support it does not itself reach; the guarded
// path adds exactly +0 there. Both spans are solved analytically and their
// endpoints verified with the exact predicates of the requested arithmetic
// (recurrence or simd). Every decision is a function of the row constants
// (pc, xc, ya, yb, zc) and the window alone, so any decomposition of a volume
// that cuts the same tiles splits the same row the same way. A row z may
// cross gets (0, 0, 0, nx): no skipping, no interior.
func (a *projAccess) rowSpans(pc *projConsts, xc, ya, yb, zc float32, nx int, simd bool) (c0, i0, i1, c1 int) {
	if ya > yb {
		ya, yb = yb, ya
	}
	xcd, zcd := float64(xc), float64(zc)
	yld, yhd := float64(ya), float64(yb)
	// Row-end values of w, u and v: with w > 0 across the row, x(i) and
	// y(i) are monotonic (linear-fractional, no pole), so the row's
	// coordinate range is spanned by its endpoints.
	w0, wn := zcd, pc.azn+zcd
	if !(w0 > 0 && wn > 0) {
		return 0, 0, 0, nx
	}
	ux0, uxn := xcd, pc.axn+xcd
	yl0, yln := yld, pc.ayn+yld
	yh0, yhn := yhd, pc.ayn+yhd
	// Endpoint pre-reject: both endpoints past the same support boundary
	// means the support solve comes out empty — declare the row provably
	// zero without running it. The boundaries are the solve's own, so the
	// decision is identical to the full solve's. Both w's are positive, so
	// the ratio tests u/w < B multiply through to u < B·w — no divides on
	// this always-taken path.
	if b := &a.win.support; (ux0 < b[0]*w0 && uxn < b[0]*wn) || (ux0 > b[1]*w0 && uxn > b[1]*wn) ||
		(yh0 < b[2]*w0 && yhn < b[2]*wn) || (yl0 > b[3]*w0 && yln > b[3]*wn) {
		return 0, 0, 0, 0
	}
	// Fully-interior pre-accept, the mirror image of the pre-reject: both
	// endpoints clearing every interior boundary by its half-pixel margin
	// (padded past float64 product rounding) means the whole row is
	// interior — the 0.5 margin dominates the kernels' float32 drift
	// exactly as it does for the analytic solve, so [0,nx) is a sound
	// interior span and the eight boundary divisions are skipped.
	if b := &a.win.accept; ux0 > b[0]*w0 && uxn > b[0]*wn && ux0 < b[1]*w0 && uxn < b[1]*wn &&
		yl0 > b[2]*w0 && yln > b[2]*wn && yh0 < b[3]*w0 && yhn < b[3]*wn {
		c0, c1 = 0, nx
		i0, i1 = 0, nx
	} else {
		c0, c1 = clipRow(&pc.support, &a.win.support, xcd, yhd, yld, zcd, nx)
		i0, i1 = clipRow(&pc.interior, &a.win.interior, xcd, yld, yhd, zcd, nx)
	}
	// The analytic solve carries a half-pixel margin; the float32
	// predicates pin the final boundaries so the fast paths stay sound even
	// if the float64 clip were off by a column.
	ax, ay, az := pc.m.R0[0], pc.m.R1[0], pc.m.R2[0]
	for i0 < i1 && !a.interiorResidentFast(i0, ax, ay, az, xc, ya, yb, zc, simd) {
		i0++
	}
	for i0 < i1 && !a.interiorResidentFast(i1-1, ax, ay, az, xc, ya, yb, zc, simd) {
		i1--
	}
	if c0 < c1 {
		for c0 > 0 && !a.zeroContribFast(c0-1, ax, ay, az, xc, ya, yb, zc, simd) {
			c0--
		}
		for c1 < nx && !a.zeroContribFast(c1, ax, ay, az, xc, ya, yb, zc, simd) {
			c1++
		}
	}
	// Support must contain the interior (it does analytically; keep it
	// true defensively after the endpoint walks).
	if i0 < i1 {
		if c0 > i0 {
			c0 = i0
		}
		if c1 < i1 {
			c1 = i1
		}
	}
	return c0, i0, i1, c1
}

// rowRec processes one (output row, projection) pair in the len(yc) slices
// of a k-tile that share xc and zc: rows starts at the row in the first
// slice, the row in each further slice lies stride floats on, and yc holds
// the slices' v constants. rowSpans decides the supported and interior
// columns once for the tile, then the supported ones are walked in every
// slice through the requested arithmetic's fused interior and guarded
// border paths.
func (a *projAccess) rowRec(rows []float32, stride int, pc *projConsts, xc, zc float32, yc []float32, nx int, ctr *kernelCounters, simd bool) {
	c0, i0, i1, c1 := a.rowSpans(pc, xc, yc[0], yc[len(yc)-1], zc, nx, simd)
	h := int64(len(yc))
	ctr.interior += h * int64(i1-i0)
	ctr.border += h * int64((c1-c0)-(i1-i0))
	ctr.skipped += h * int64(nx-(c1-c0))
	if c0 >= c1 {
		return
	}
	if simd {
		// One assembly launch covers the whole supported span in every
		// slice of the tile: 8-lane groups wholly inside [i0,i1) run the
		// unguarded body, every other covered group runs the guarded
		// texture-border body under a lane mask. Interior columns in
		// partial groups are counted as scalar-tail samples.
		if i0 >= i1 {
			i0, i1 = c0, c0
		}
		launchSpan(&pc.args, rows, stride, c0, c1, i0, i1, xc, zc, yc)
		ctr.reanchors += h * reanchorSegments(c0, c1)
		fg, ts := simdLaneCounts(i0, i1)
		ctr.simdGroups += h * fg
		ctr.simdTail += h * ts
		return
	}
	// Pair-aligned fully-interior core; the ≤1 unaligned column on each
	// side joins the border ranges (the guarded gather is bit-identical on
	// resident columns — the guards only decide whether a load happens,
	// never its value).
	f0, f1 := (i0+1)&^1, i1&^1
	if f0 >= f1 {
		f0, f1 = c0, c0
	}
	// The hot loops live in their own functions on purpose: the span
	// decisions' locals plus the loop state of a fused gather exceed the
	// register file, and keeping them in one frame makes the allocator
	// spill lane values and loop counters to the stack on every iteration.
	// Dedicated functions give each loop its own allocation with a small
	// live set.
	s := pc.s
	ax, ay, az := pc.m.R0[0], pc.m.R1[0], pc.m.R2[0]
	for t, ycT := range yc {
		out := rows[t*stride : t*stride+nx]
		if f0 < f1 {
			ctr.reanchors += a.fusedInterior(out, s, f0, f1, ax, ay, az, xc, ycT, zc)
		}
		ctr.reanchors += a.guardedCols(out, s, c0, f0, ax, ay, az, xc, ycT, zc)
		ctr.reanchors += a.guardedCols(out, s, f1, c1, ax, ay, az, xc, ycT, zc)
	}
}

// reanchorSegments counts the anchor segments the non-empty column range
// [c0,c1) touches: one re-anchor event each.
func reanchorSegments(c0, c1 int) int64 {
	b0 := c0 &^ (reanchorPeriod - 1)
	b1 := (c1 - 1) &^ (reanchorPeriod - 1)
	return int64((b1-b0)/reanchorPeriod) + 1
}

// fusedInterior back-projects the pair-aligned, fully-interior columns
// [f0,f1): one pass per anchor-aligned segment of K columns, with divides,
// unguarded 2×2 gathers and accumulates fused — one store per sample. The
// two lanes start from a direct evaluation at each anchor and advance by
// the exact power-of-two-scaled steps, bit-for-bit what recCoords defines,
// so the coordinate at column i stays a pure function of i regardless of
// decomposition or blocking. Two lanes, not four: the six lane values plus
// the step constants and blend temporaries are what fits the sixteen
// vector registers without per-group spills.
func (a *projAccess) fusedInterior(out []float32, s, f0, f1 int, ax, ay, az, xc, yc, zc float32) int64 {
	data := a.data[s*a.sStride:]
	rowOff := a.rowOff
	lo := a.lo
	// The gather runs on raw pointers: interiorSpan plus the float32
	// residency walks in rowRec prove iu ∈ [0, nu−2] and iv ∈ [lo, hi−2]
	// for every column handed to this function (TestInteriorSpanSound
	// fuzzes that proof), so the bounds checks the compiler cannot see
	// past — three slice constructions and a table load per sample —
	// are discharged analytically instead of per element.
	dp := unsafe.Pointer(unsafe.SliceData(data))
	rp := unsafe.Pointer(unsafe.SliceData(rowOff))
	op := unsafe.Pointer(unsafe.SliceData(out))
	ax2, ay2, az2 := ax*2, ay*2, az*2
	segs := int64(0)
	for b := f0 &^ (reanchorPeriod - 1); b < f1; b += reanchorPeriod {
		seg1 := b + reanchorPeriod
		if seg1 > f1 {
			seg1 = f1
		}
		segs++
		fb0 := float32(b)
		u0, v0, w0 := ax*fb0+xc, ay*fb0+yc, az*fb0+zc
		fb1 := float32(b + 1)
		u1, v1, w1 := ax*fb1+xc, ay*fb1+yc, az*fb1+zc
		// Pairs before f0 only advance the lanes — each addition
		// rounds, so skipping them would change the values — keeping
		// the working loop below free of range tests.
		base := b
		for ; base < f0; base += 2 {
			u0 += ax2
			v0 += ay2
			w0 += az2
			u1 += ax2
			v1 += ay2
			w1 += az2
		}
		for ; base < seg1; base += 2 {
			{
				rz0 := 1 / w0
				rz1 := 1 / w1
				o := (*[2]float32)(unsafe.Add(op, uintptr(base)*4))

				x := u0 * rz0
				y := v0 * rz0
				iu := int(x)
				iv := int(y)
				eu := x - float32(iu)
				ev := y - float32(iv)
				r0 := unsafe.Add(dp, uintptr(*(*int)(unsafe.Add(rp, uintptr(iv-lo)*8))+iu)*4)
				r1 := unsafe.Add(dp, uintptr(*(*int)(unsafe.Add(rp, uintptr(iv-lo+1)*8))+iu)*4)
				p00 := *(*float32)(r0)
				p01 := *(*float32)(unsafe.Add(r0, 4))
				p10 := *(*float32)(r1)
				p11 := *(*float32)(unsafe.Add(r1, 4))
				t1 := p00 + eu*(p01-p00)
				t2 := p10 + eu*(p11-p10)
				o[0] += rz0 * rz0 * (t1 + ev*(t2-t1))

				x = u1 * rz1
				y = v1 * rz1
				iu = int(x)
				iv = int(y)
				eu = x - float32(iu)
				ev = y - float32(iv)
				r0 = unsafe.Add(dp, uintptr(*(*int)(unsafe.Add(rp, uintptr(iv-lo)*8))+iu)*4)
				r1 = unsafe.Add(dp, uintptr(*(*int)(unsafe.Add(rp, uintptr(iv-lo+1)*8))+iu)*4)
				p00 = *(*float32)(r0)
				p01 = *(*float32)(unsafe.Add(r0, 4))
				p10 = *(*float32)(r1)
				p11 = *(*float32)(unsafe.Add(r1, 4))
				t1 = p00 + eu*(p01-p00)
				t2 = p10 + eu*(p11-p10)
				o[1] += rz1 * rz1 * (t1 + ev*(t2-t1))
			}
			u0 += ax2
			v0 += ay2
			w0 += az2
			u1 += ax2
			v1 += ay2
			w1 += az2
		}
	}
	return segs
}

// guardedCols back-projects columns [g0,g1) through the texture-border
// gather: every neighbour access is guarded against the readable window,
// exactly the exact kernel's border semantics. Coordinates come from the
// same per-segment lane walk as the fused path (pass 1 parks x, y and the
// weight rz² in small stack arrays so the replay loop's live set stays
// tiny), so a resident column computes bit-identically to fusedInterior.
// floor32, not int truncation, because border coordinates may be negative.
// Returns the number of re-anchor events.
func (a *projAccess) guardedCols(out []float32, s, g0, g1 int, ax, ay, az, xc, yc, zc float32) int64 {
	if g0 >= g1 {
		return 0
	}
	ax2, ay2, az2 := ax*2, ay*2, az*2
	var xs, ys, w2s [reanchorPeriod]float32
	segs := int64(0)
	for b := g0 &^ (reanchorPeriod - 1); b < g1; b += reanchorPeriod {
		seg0 := b
		if seg0 < g0 {
			seg0 = g0
		}
		seg1 := b + reanchorPeriod
		if seg1 > g1 {
			seg1 = g1
		}
		segs++
		fb0 := float32(b)
		u0, v0, w0 := ax*fb0+xc, ay*fb0+yc, az*fb0+zc
		fb1 := float32(b + 1)
		u1, v1, w1 := ax*fb1+xc, ay*fb1+yc, az*fb1+zc
		base := b
		for ; base+2 <= seg0; base += 2 {
			u0 += ax2
			v0 += ay2
			w0 += az2
			u1 += ax2
			v1 += ay2
			w1 += az2
		}
		for ; base < seg1; base += 2 {
			q := (base - b) & (reanchorPeriod - 2)
			rz0 := 1 / w0
			rz1 := 1 / w1
			xs[q] = u0 * rz0
			ys[q] = v0 * rz0
			w2s[q] = rz0 * rz0
			xs[q+1] = u1 * rz1
			ys[q+1] = v1 * rz1
			w2s[q+1] = rz1 * rz1
			u0 += ax2
			v0 += ay2
			w0 += az2
			u1 += ax2
			v1 += ay2
			w1 += az2
		}
		a.replayGuarded(out, s, b, seg0, seg1, &xs, &ys, &w2s)
	}
	return segs
}

// replayGuarded applies the guarded 2×2 gather to columns [seg0,seg1) of
// one anchor segment, reading the precomputed coordinates and weights from
// the q = i−b slots of the stack arrays: the texture-border semantics —
// every neighbour access guarded against the readable window, exactly the
// exact kernel's border behaviour — that guardedColsSIMD and the assembly
// span kernel's guarded body replicate arithmetic-for-arithmetic. floor32,
// not int truncation, because border coordinates may be negative.
func (a *projAccess) replayGuarded(out []float32, s, b, seg0, seg1 int, xs, ys, w2s *[reanchorPeriod]float32) {
	data := a.data[s*a.sStride:]
	lo := a.lo
	hi := a.hi
	nuRow := a.nu
	// The guards below establish exactly the bounds the compiler would
	// re-check on every slice access (iv ∈ [lo,hi) before the row-table
	// load, iu ∈ [0,nu) before each pixel load), so the loads themselves
	// run on raw pointers.
	dp := unsafe.Pointer(unsafe.SliceData(data))
	rp := unsafe.Pointer(unsafe.SliceData(a.rowOff))
	for i := seg0; i < seg1; i++ {
		q := (i - b) & (reanchorPeriod - 1)
		x := xs[q]
		y := ys[q]
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
		out[i] += w2s[q] * (t1 + ev*(t2-t1))
	}
}
