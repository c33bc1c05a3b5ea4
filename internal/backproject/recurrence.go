package backproject

import (
	"math"
	"unsafe"

	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The kernel's walk: the slices of a slab cut into k-tiles, a row
// back-projected from a block of projections into every slice of its tile
// in one launch, and the spans that decide which columns each projection of
// a launch covers and which of them run unguarded. The homogeneous detector
// coordinates of one output row are affine in the column index i,
//
//	u(i) = ax·i + xc,  v(i) = ay·i + yc,  w(i) = az·i + zc
//
// and the kernel evaluates them directly at every column (simd.go states
// the contract and holds its Go spelling, fusedTileGo; simd_amd64.s and
// simd512_amd64.s hold fusedTileAVX2 and fusedTile512), so the value at
// column i is a function of (i, row constants) alone: whatever
// decomposition, worker count or blocking produced the row, every path
// (unguarded body, guarded body, span predicate) sees identical float32
// coordinates, which is what keeps streaming ≡ batch ≡ resume
// bit-identical.

// projBlock is the s-blocking factor, in two roles. The (k, j) voxel sweep
// is repeated per block of projBlock projections so the detector-row window
// those projections touch stays cache-resident across the sweep instead of
// streaming the whole ring per output row; and a launch covers one row of
// one k-tile for the whole block, so the 16-lane spelling sums a group's
// contributions from up to projBlock projections in registers before it
// stores the group once. Because per-voxel accumulation still visits s in
// ascending order, within a launch and across blocks, the result is
// bit-identical for every block size.
const projBlock = 16

// zBlock is the greatest height of a k-tile: the adjacent slices that a
// (row j, projection s) pair is back-projected into together, so the
// span solve and everything else that does not depend on z is done once
// for all of them, and the detector rows they project to stay hot while
// the j sweep revisits them. Like projBlock it only reorders independent
// output rows, never the per-voxel s order. At 16 a worker's share of
// every slab the benchmark runs is one tile — a 12-slice slab on one
// worker is one launch per (row, projection) pair, not two — and a taller
// slab is cut into tiles of at most 16; EXPERIMENTS.md has the sweep.
const zBlock = 16

// tileFootprint returns the origin of column i's 2×2 footprint in a k-tile's
// two end slices, whose v constants are ya and yb — the detector column iu,
// which u and w make the same in every slice, and the rows iva and ivb — and
// whether the weight rz² is finite, with the exact float32 values the kernel
// computes for the column under the coordinate contract of simd.go. One
// reciprocal, one x and one floor(x) serve both ends.
func tileFootprint(i int, ax, ay, az, xc, ya, yb, zc float32) (iu, iva, ivb int, finite bool) {
	rz := 1 / laneAt(i, az, zc)
	iu = int(floor32(laneAt(i, ax, xc) * rz))
	iva = int(floor32(laneAt(i, ay, ya) * rz))
	ivb = int(floor32(laneAt(i, ay, yb) * rz))
	return iu, iva, ivb, rz*rz < math.MaxFloat32
}

// resident reports whether the 2×2 footprint at (iu, iv) lies wholly inside
// the readable window.
func (a *projAccess) resident(iu, iv int) bool {
	return iu >= 0 && iu+1 < a.nu && iv >= a.lo && iv+1 < a.hi
}

// interiorResident decides whether column i's footprint is resident in
// every slice of a k-tile whose v constants lie in [ya, yb] (ya == yb for a
// single row), from the footprint the kernel computes in the tile's two end
// slices (an accepted column has x, y ≥ 0, so the unguarded body's
// truncating conversion equals floor wherever it is allowed to truncate).
// Those speak for the slices between them: every float32 operation from the
// slice index to iv is monotone, so a middle slice's iv lies between the
// ends', and the resident rows are an interval.
func (a *projAccess) interiorResident(i int, ax, ay, az, xc, ya, yb, zc float32) bool {
	iu, iva, ivb, _ := tileFootprint(i, ax, ay, az, xc, ya, yb, zc)
	return a.resident(iu, iva) && a.resident(iu, ivb)
}

// zeroContrib reports whether column i's contribution is provably exactly
// +0 in every slice of a k-tile whose v constants lie in [ya, yb]: all four
// bilinear neighbours lie outside the readable window (texture-border
// zeros) and the distance weight rz² is finite, so rz²·0 = +0 and skipping
// the column leaves the accumulator bit-identical (out[i] is never −0: it
// starts +0 and round-to-nearest addition cannot produce −0 from a +0
// running sum). An overflowing weight — the reciprocal of a degenerate w is
// infinite or NaN — is evaluated rather than reasoned about as Inf·0:
// skipping always needs proof, evaluating is always safe. A column is zero
// in the whole tile when x misses the window, or when the highest slice is
// still below it, or the lowest already above it — the two ends may not
// miss it on opposite sides, because the slices between them then cross it.
func (a *projAccess) zeroContrib(i int, ax, ay, az, xc, ya, yb, zc float32) bool {
	iu, iva, ivb, finite := tileFootprint(i, ax, ay, az, xc, ya, yb, zc)
	if !finite {
		return false
	}
	return iu < -1 || iu >= a.nu || ivb < a.lo-1 || iva >= a.hi
}

// spanWindow is the readable window [0,nu) × [lo,hi) in the forms a
// launch's span decisions compare against. It depends on (nu, lo, hi) only,
// so accumulateSlab derives it once instead of once per boundary test.
type spanWindow struct {
	// support and interior are supportBounds and interiorBounds; accept is
	// the interior tightened past float64 product rounding for the
	// fully-interior pre-accept.
	support, interior, accept [4]float64
}

func (a *projAccess) newSpanWindow() spanWindow {
	const md = 0.5 + 1e-9
	return spanWindow{
		support:  a.supportBounds(),
		interior: a.interiorBounds(),
		accept:   [4]float64{md, float64(a.nu-1) - md, float64(a.lo) + md, float64(a.hi-1) - md},
	}
}

// projConsts is what the (row, k-tile) entries of one projection share
// across the rows of a slab: the matrix, the float64 forms of its column
// coefficients that the span solves work in, and the base of its samples.
// One is built per worker and projection of a block, outside the (k, j)
// sweep.
type projConsts struct {
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
	data              unsafe.Pointer // base of projection s's samples
}

func (a *projAccess) newProjConsts(s int, m *geometry.Mat34x4, nx int) projConsts {
	pc := projConsts{m: *m, zInvariant: m.R0[2] == 0 && m.R2[2] == 0}
	pc.axd, pc.ayd, pc.azd = float64(m.R0[0]), float64(m.R1[0]), float64(m.R2[0])
	last := float64(nx - 1)
	pc.axn, pc.ayn, pc.azn = pc.axd*last, pc.ayd*last, pc.azd*last
	pc.support = clipCoefs(pc.axd, pc.ayd, pc.azd, &a.win.support)
	pc.interior = clipCoefs(pc.axd, pc.ayd, pc.azd, &a.win.interior)
	pc.data = unsafe.Pointer(unsafe.SliceData(a.data[s*a.sStride:]))
	return pc
}

// blockLanes is a block's projConsts in structure-of-arrays form, lane i
// holding projection i of the block, beside the launch's window: what
// blockSpans512 reads to make a block's entries for one (row, k-tile) with
// the block's projections in the lanes of its vectors. A worker builds one
// per block, from the block's projConsts, outside the (k, j) sweep; lanes
// at and past n hold whatever an earlier block left there and are masked.
type blockLanes struct {
	r0, r1, r2        [4][projBlock]float32 // r0[c][i] is m.R0[c] of lane i's matrix
	axn, ayn, azn     [projBlock]float64
	support, interior [4][projBlock]float64
	data              [projBlock]unsafe.Pointer
	n                 int64   // lanes in use: the block's projections
	nx                int64   // columns per volume row
	last              float64 // nx − 1, where clipRow's upper bound starts
	win               spanWindow
	// The integer edges the probes compare x and y against: with them
	// interiorResident and zeroContrib need no floor (spans512_amd64.s).
	// Like the columns' float32(i), they are exact below 2²⁴, far past any
	// detector's width or height.
	nu1, lo, hi1, nu, lo1, hi float32 // nu−1, lo, hi−1, nu, lo−1, hi
}

// initLanes sets the fields of a worker's blockLanes that all the blocks of
// a launch over rows of nx columns share.
func (a *projAccess) initLanes(l *blockLanes, nx int) {
	l.nx, l.last, l.win = int64(nx), float64(nx-1), a.win
	l.nu1, l.lo, l.hi1 = float32(a.nu-1), float32(a.lo), float32(a.hi-1)
	l.nu, l.lo1, l.hi = float32(a.nu), float32(a.lo-1), float32(a.hi)
}

// load copies block, at most projBlock projections, into the lanes.
func (l *blockLanes) load(block []projConsts) {
	l.n = int64(len(block))
	for i := range block {
		pc := &block[i]
		for c := range 4 {
			l.r0[c][i], l.r1[c][i], l.r2[c][i] = pc.m.R0[c], pc.m.R1[c], pc.m.R2[c]
			l.support[c][i], l.interior[c][i] = pc.support[c], pc.interior[c]
		}
		l.axn[i], l.ayn[i], l.azn[i] = pc.axn, pc.ayn, pc.azn
		l.data[i] = pc.data
	}
}

// tileHeight is the height of the k-tiles a slab of nz slices is cut into
// for workers workers. The tiles are adjacent slices — adjacent, so that a
// tile's sweep of v, which its spans must cover, is as short as its height
// allows — dealt to the workers in turn: the fewest tiles of at most zBlock
// slices that come to a whole number of rounds, at equal heights (the last
// may be lower). A slab of at most zBlock slices per worker is one tile per
// worker.
func tileHeight(nz, workers int) int {
	tiles := workers * ((nz + workers*zBlock - 1) / (workers * zBlock))
	return (nz + tiles - 1) / tiles
}

// accumulateSlices back-projects the k slices owned by worker w, with cache
// as the worker's row cache and lanes (nil: rowRec solves the spans) as the
// block's projections in the form blockSpans512 reads. Loop order is
// s-block → k-tile → j → group → s → k: the voxel sweep is repeated per
// block of projBlock projections (cache blocking), and one launch per
// (row, k-tile, block) walks the row's column groups, each group the block's projections in ascending s and each
// projection the slices of the tile innermost, where only v is new. Per
// projection the row's column loop is clipped to its detector support and
// split into guarded groups around the unguarded interior. A voxel still
// receives the same float32 additions in the same ascending s: within a
// launch the 16-lane spelling carries the running sums of a group's slices
// in registers, between launches the volume carries them.
func (a *projAccess) accumulateSlices(w, workers int, mats []geometry.Mat34x4, slab *volume.Volume, cache *rowCache, lanes *blockLanes, ctr *kernelCounters) {
	nx := slab.NX
	stride := slab.NY * nx
	th := tileHeight(slab.NZ, workers)
	var pcs [projBlock]projConsts
	var kfs [zBlock]float32
	var args tileArgs
	a.initTileArgs(&args, stride, cache)
	if lanes != nil {
		a.initLanes(lanes, nx)
	}
	for sb := 0; sb < a.np; sb += projBlock {
		block := pcs[:min(projBlock, a.np-sb)]
		for i := range block {
			block[i] = a.newProjConsts(sb+i, &mats[sb+i], nx)
		}
		if lanes != nil {
			lanes.load(block)
		}
		for kt := w * th; kt < slab.NZ; kt += workers * th {
			kf := kfs[:0]
			for k := kt; k < slab.NZ && len(kf) < th; k++ {
				kf = append(kf, float32(slab.Z0+k))
			}
			for j := 0; j < slab.NY; j++ {
				a.tileRec(&args, slab.Data[(kt*slab.NY+j)*nx:], stride, block, lanes, float32(j), kf, nx, ctr)
			}
		}
	}
}

// tileRec back-projects the projections of block, in ascending s, into
// volume row jf of the slices kf of a k-tile, rows starting at the row in
// the first slice: one launch for the block. A launch's slices share xc and
// zc, which holds in all of them when every projection of the block is
// zInvariant; otherwise the tile is launched a slice at a time — the same
// code with tile height 1. The entries are made by blockSpans512 from lanes,
// the block in structure-of-arrays form, when the launch has it, and by
// rowRec a projection at a time otherwise: the same entries and counters
// either way.
func (a *projAccess) tileRec(args *tileArgs, rows []float32, stride int, block []projConsts, lanes *blockLanes, jf float32, kf []float32, nx int, ctr *kernelCounters) {
	h := len(kf)
	for i := range block {
		if !block[i].zInvariant {
			h = 1
		}
	}
	args.h = int64(h)
	for t := 0; t < len(kf); t += h {
		if lanes != nil {
			blockSpans512(args, lanes, &kf[t], jf, ctr)
		} else {
			args.n = 0
			for i := range block {
				a.rowRec(args, &block[i], jf, kf[t:t+h], nx, ctr)
			}
		}
		if args.n > 0 {
			a.launchTile(args, rows[t*stride:])
		}
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
// endpoints verified with the kernel's own float32 arithmetic. Every decision is a function of the row constants
// (pc, xc, ya, yb, zc) and the window alone, so any decomposition of a volume
// that cuts the same tiles splits the same row the same way. A row z may
// cross gets (0, 0, 0, nx): no skipping, no interior.
func (a *projAccess) rowSpans(pc *projConsts, xc, ya, yb, zc float32, nx int) (c0, i0, i1, c1 int) {
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
	// interior — the 0.5 margin dominates the kernel's float32 rounding
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
	for i0 < i1 && !a.interiorResident(i0, ax, ay, az, xc, ya, yb, zc) {
		i0++
	}
	for i0 < i1 && !a.interiorResident(i1-1, ax, ay, az, xc, ya, yb, zc) {
		i1--
	}
	if c0 < c1 {
		for c0 > 0 && !a.zeroContrib(c0-1, ax, ay, az, xc, ya, yb, zc) {
			c0--
		}
		for c1 < nx && !a.zeroContrib(c1, ax, ay, az, xc, ya, yb, zc) {
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

// rowRec adds one projection's entry for one output row to the launch in
// args, in the slices kf of a k-tile that share xc and zc: the row
// constants, which are part of the coordinate contract (each product is
// rounded before it is added), then rowSpans' supported and interior
// columns, solved once for the tile. A projection whose support misses the
// row gets no entry. The counters are read off the spans, so they do not
// depend on which spelling the launch dispatches to.
func (a *projAccess) rowRec(args *tileArgs, pc *projConsts, jf float32, kf []float32, nx int, ctr *kernelCounters) {
	m := &pc.m
	e := &args.ent[args.n]
	yj := float32(m.R1[1] * jf)
	for t, k := range kf {
		e.yc[t] = yj + float32(m.R1[2]*k) + m.R1[3]
	}
	xc := float32(m.R0[1]*jf) + float32(m.R0[2]*kf[0]) + m.R0[3]
	zc := float32(m.R2[1]*jf) + float32(m.R2[2]*kf[0]) + m.R2[3]
	c0, i0, i1, c1 := a.rowSpans(pc, xc, e.yc[0], e.yc[len(kf)-1], zc, nx)
	h := int64(len(kf))
	ctr.interior += h * int64(i1-i0)
	ctr.border += h * int64((c1-c0)-(i1-i0))
	ctr.skipped += h * int64(nx-(c1-c0))
	if c0 >= c1 {
		return
	}
	if i0 >= i1 {
		i0, i1 = c0, c0
	}
	e.data = pc.data
	e.c0, e.c1, e.f0, e.f1 = int64(c0), int64(c1), int64(i0), int64(i1)
	e.ax, e.ay, e.az, e.xc, e.zc = m.R0[0], m.R1[0], m.R2[0], xc, zc
	if args.n == 0 {
		args.c0, args.c1 = e.c0, e.c1
	} else {
		args.c0, args.c1 = min(args.c0, e.c0), max(args.c1, e.c1)
	}
	args.n++
}
