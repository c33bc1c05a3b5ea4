package backproject

import (
	"math"
	"unsafe"
)

// The kernel walks a volume row eight columns at a time: the three
// homogeneous coordinates are evaluated directly at every column, one exact
// reciprocal per column serves every slice of a k-tile, and the 2×2
// bilinear footprints are fetched per lane. The coordinate at column i is a
// function of (i, row constants) alone — the property that keeps every
// slab/window decomposition of the same reconstruction bit-identical.
//
// The coordinate contract (the value every consumer must agree on):
//
//	value(i)   = op·float32(i) + oc          (product rounded, then added)
//	rz         = 1 / w                       (the IEEE-754 float32 divide)
//	x, y       = u·rz, v·rz;  weight = rz·rz
//	sample     = p00 + eu·(p01−p00) blended by ev, each product rounded
//	out[i]    += weight·sample               (product rounded, then added)
//
// Every operation is a correctly rounded IEEE-754 float32 operation and no
// product is fused into the add or subtract it feeds, so the contract has
// one value on every host. It is spelled twice: fusedTileAVX2
// (simd_amd64.s) evaluates eight columns together in vectors, fusedTileGo
// below one column at a time, and writes a product that feeds an add or a
// subtract as float32(a*b) — the conversion the Go specification defines as
// preventing fusion on targets that have a fused multiply-add (make
// fuse-lint checks the compiled code). accumulateSlab picks the assembly
// where the host has AVX2 and the storage offsets fit its 32-bit gather
// indices, the Go spelling otherwise; the bytes and the counters do not
// depend on the choice. laneAt and simdCoords are the contract's coordinates
// at one column, which the span predicates (footprint) and the guarded
// columns evaluate. float32(i) is exact, and the assembly's column vector
// stepped by 8.0 equals it, while i < 2²⁴ — far past any volume's width.

// simdLanes is the width of the kernel's column groups: 8 float32 lanes.
const simdLanes = 8

// laneAt returns the contract's value at column i of the coordinate
// op·i + oc.
func laneAt(i int, op, oc float32) float32 { return float32(op*float32(i)) + oc }

// simdCoords returns the contract's homogeneous coordinates at column i.
func simdCoords(i int, ax, ay, az, xc, yc, zc float32) (u, v, w float32) {
	return laneAt(i, ax, xc), laneAt(i, ay, yc), laneAt(i, az, zc)
}

// simdRowArgs carries one (row, projection, k-tile) launch into either
// spelling of the kernel; the assembly addresses the fields by name
// (go_asm.h).
type simdRowArgs struct {
	data   unsafe.Pointer // base of projection s's samples
	rows   unsafe.Pointer // int32 row table (rowIdx32: entry iv−lo2 is row iv), the assembly's
	out    unsafe.Pointer // the output row in the tile's first slice
	stride int64          // bytes from the row in one slice of the tile to the next
	h      int64          // slices in the tile, 1..zBlock
	c0     int64          // first covered column (inclusive)
	c1     int64          // last covered column (exclusive)
	f0     int64          // first interior column (inclusive)
	f1     int64          // last interior column (exclusive)
	lo2    int32          // lo − 2: the global row of the row table's first entry
	hi     int32          // first global detector row past the readable ones
	nu     int32          // detector columns per row
	ax     float32
	ay     float32
	az     float32
	xc     float32
	zc     float32
	yc     [zBlock]float32 // v's row constant, one per slice
}

// initSpanArgs fills the fields of the argument block that every row of
// projection s shares: the projAccess addressing (projection-s base, the
// int32 row table prepareSIMD built if the launch runs the assembly, window
// extents) and the column coefficients.
func (a *projAccess) initSpanArgs(args *simdRowArgs, s int, ax, ay, az float32) {
	args.data = unsafe.Pointer(unsafe.SliceData(a.data[s*a.sStride:]))
	args.rows = unsafe.Pointer(unsafe.SliceData(a.rowIdx32))
	args.lo2, args.hi, args.nu = int32(a.lo-2), int32(a.hi), int32(a.nu)
	args.ax, args.ay, args.az = ax, ay, az
}

// launchSpan back-projects the non-empty covered columns [c0,c1) of one
// output row in len(yc) ≤ zBlock slices that share xc and zc, through an
// argument block initSpanArgs prepared for the projection and the spelling
// accumulateSlab chose for the launch. rows starts at the row in the first
// slice and the row in each further slice lies stride floats on. [f0,f1)
// must be interior in every one of the slices and a sub-span of [c0,c1)
// (possibly empty: f0 == f1): its 8-column groups take the unguarded body,
// every other covered column the guarded texture-border one.
func (a *projAccess) launchSpan(args *simdRowArgs, rows []float32, stride int, c0, c1, f0, f1 int, xc, zc float32, yc []float32) {
	args.out = unsafe.Pointer(unsafe.SliceData(rows))
	args.stride = int64(stride) * 4
	args.h = int64(copy(args.yc[:], yc))
	args.c0 = int64(c0)
	args.c1 = int64(c1)
	args.f0 = int64(f0)
	args.f1 = int64(f1)
	args.xc, args.zc = xc, zc
	if a.asm {
		fusedTileAVX2(args)
	} else {
		a.fusedTileGo(args)
	}
}

// fusedTileGo is fusedTileAVX2 in Go: where the assembly evaluates eight
// columns in a vector, this walks them one at a time (the columns never mix,
// so the order is free). The groups the assembly runs through its unguarded
// body are the columns fastCols takes. It reads the samples through the int
// row table, so no buffer is too large for it.
func (a *projAccess) fusedTileGo(args *simdRowArgs) {
	c0, c1 := int(args.c0), int(args.c1)
	g0, g1 := (int(args.f0)+simdLanes-1)&^(simdLanes-1), int(args.f1)&^(simdLanes-1)
	if g0 >= g1 {
		g0, g1 = c0, c0
	}
	a.guardedCols(args, c0, g0)
	a.fastCols(args, g0, g1)
	a.guardedCols(args, g1, c1)
}

// fastCols runs the unguarded body on columns [g0,g1). Per column the
// z-invariant u, w, rz, x, iu, eu, rz² and ay·i are computed once and the
// slice loop runs inside. A function of its own, with the row constants in
// locals, so that this loop nest and nothing else gets the registers.
//
// The loads run on raw pointers: rowSpans proved iu ∈ [0, nu−2] and
// iv ∈ [lo, hi−2] in every slice for every column handed to this function
// (TestTileSpansSound fuzzes that proof), so the bounds checks the compiler
// cannot see past are discharged analytically instead of per element.
// x, y ≥ 0 there, so truncation is floor.
func (a *projAccess) fastCols(args *simdRowArgs, g0, g1 int) {
	dp := args.data
	rp := unsafe.Pointer(unsafe.SliceData(a.rowOff[2:]))
	lo := a.lo
	stride := args.stride
	yc := args.yc[:args.h]
	ax, ay, az, xc, zc := args.ax, args.ay, args.az, args.xc, args.zc
	for col := g0; col < g1; col++ {
		fi := float32(col)
		rz := 1 / (float32(az*fi) + zc)
		x := float32((float32(ax*fi) + xc) * rz)
		iu := int(x)
		eu := x - float32(iu)
		rz2 := rz * rz
		ayi := float32(ay * fi)
		op := unsafe.Add(args.out, col*4)
		dpu := unsafe.Add(dp, iu*4)
		for _, c := range yc {
			y := float32((ayi + c) * rz)
			iv := int(y)
			ev := y - float32(iv)
			r0 := unsafe.Add(dpu, *(*int)(unsafe.Add(rp, (iv-lo)*8))*4)
			r1 := unsafe.Add(dpu, *(*int)(unsafe.Add(rp, (iv-lo+1)*8))*4)
			p00, p01 := *(*float32)(r0), *(*float32)(unsafe.Add(r0, 4))
			p10, p11 := *(*float32)(r1), *(*float32)(unsafe.Add(r1, 4))
			t1 := p00 + float32(eu*(p01-p00))
			t2 := p10 + float32(eu*(p11-p10))
			*(*float32)(op) += float32(rz2 * (t1 + float32(ev*(t2-t1))))
			op = unsafe.Add(op, stride)
		}
	}
}

// guardedCols runs the guarded body on columns [g0,g1): the contract's
// coordinates — u and w, and what follows from them, once per column, v per
// slice — with floor32, not truncation, because
// border coordinates may be negative, and eu and ev taken from that floor.
// Then the footprint's origin is clamped to columns [−2, nu] and rows
// [lo−2, hi], where the store holds the texture border as data (the apron
// and the row table's zero-slot entries): a neighbour outside the readable
// window loads exactly +0, a footprint beyond the clamp would have loaded
// four of them and still does, and a conversion of a NaN or a huge floor,
// whatever integer the host makes of it, lands inside the store. A resident
// column is untouched by the clamp and computes what fastCols computes.
func (a *projAccess) guardedCols(args *simdRowArgs, g0, g1 int) {
	rowOff, lo, hi, nu := a.rowOff, a.lo, a.hi, a.nu
	for i := g0; i < g1; i++ {
		rz := 1 / laneAt(i, args.az, args.zc)
		x := float32(laneAt(i, args.ax, args.xc) * rz)
		fx := floor32(x)
		eu := x - fx
		iu := min(max(int(fx), -2), nu)
		rz2 := rz * rz
		op := unsafe.Add(args.out, i*4)
		for _, yc := range args.yc[:args.h] {
			y := float32(laneAt(i, args.ay, yc) * rz)
			fy := floor32(y)
			ev := y - fy
			ivr := min(max(int(fy), lo-2), hi) - lo
			r0 := unsafe.Add(args.data, (rowOff[ivr+2]+iu)*4)
			r1 := unsafe.Add(args.data, (rowOff[ivr+3]+iu)*4)
			p00, p01 := *(*float32)(r0), *(*float32)(unsafe.Add(r0, 4))
			p10, p11 := *(*float32)(r1), *(*float32)(unsafe.Add(r1, 4))
			t1 := p00 + float32(eu*(p01-p00))
			t2 := p10 + float32(eu*(p11-p10))
			*(*float32)(op) += float32(rz2 * (t1 + float32(ev*(t2-t1))))
			op = unsafe.Add(op, args.stride)
		}
	}
}

// simdLaneCounts classifies the interior columns [f0,f1) by how the kernel
// executes them: groups aligned to absolute 8-column boundaries that are
// fully covered run the unguarded body; columns in partially covered groups
// run guarded under a lane mask (the "tail"). Pure arithmetic over the
// span, the same for both spellings.
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

// prepareSIMD builds the int32 row table the assembly indexes through (its
// gathers consume 32-bit indices). It reports false — the launch runs the Go
// spelling — when any storage offset could overflow an int32; at 4 bytes per
// sample that is a >8 GiB projection buffer, far beyond this host-resident
// design.
func (a *projAccess) prepareSIMD() bool {
	if int64(len(a.data)) > math.MaxInt32 {
		return false
	}
	if a.rowIdx32 == nil {
		a.rowIdx32 = make([]int32, len(a.rowOff))
		for i, r := range a.rowOff {
			a.rowIdx32[i] = int32(r)
		}
	}
	return true
}
