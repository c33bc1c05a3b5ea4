package backproject

import (
	"math"
	"unsafe"

	"distfdk/internal/device"
)

// The kernel walks a volume row a group of columns at a time: the three
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
// one value on every host. It is spelled three times: fusedTile512
// (simd512_amd64.s) evaluates sixteen columns together in ZMM vectors,
// fusedTileAVX2 (simd_amd64.s) eight in YMM vectors, and fusedTileGo below
// one column at a time, writing a product that feeds an add or a subtract
// as float32(a*b) — the conversion the Go specification defines as
// preventing fusion on targets that have a fused multiply-add (make
// fuse-lint checks the compiled code). No lane ever mixes with another, so
// the width of a group decides nothing about a column's value.
// accumulateSlab runs the widest spelling the host has (hostArithmetic)
// when the storage offsets fit the assembly's 32-bit gather indices, the
// Go spelling otherwise; the bytes and the counters do not depend on the
// choice. laneAt is the contract's value at one column,
// which the span checks (tileFootprint) and the guarded columns evaluate.
// float32(i) is exact, and the assembly's column vectors stepped by 8.0 or
// 16.0 equal it, while i < 2²⁴ — far past any volume's width.

// simdLanes is the width of the column groups the Go spelling walks its
// fast columns in.
const simdLanes = 8

// cacheRows is the most detector rows the assembly spellings' row cache
// holds: FILL blends each row a group's tile reads once when they number
// no more than the tile's slices and this.
const cacheRows = 12

// rowCache is the 16-lane spelling's scratch, one per worker: the row
// cache, cacheRows rows of sixteen horizontal blends, 64 bytes each, then a
// column group's rz for each of a launch's projBlock entries, and the pad
// that lets fusedTile512 align it to 64 bytes wherever it lies. (The 8-lane
// spelling keeps its 32-byte rows in its frame.)
type rowCache [cacheRows*64 + projBlock*64 + 63]byte

// laneAt returns the contract's value at column i of the coordinate
// op·i + oc.
func laneAt(i int, op, oc float32) float32 { return float32(op*float32(i)) + oc }

// tileArgs carries one launch into any spelling of the kernel: one output
// row in the h slices of a k-tile, back-projected from the n projections of
// its entries in ascending s. The assembly addresses the fields by name
// (go_asm.h). The worker's fields are set once (initTileArgs), the row's
// and the entries' per launch (tileRec).
type tileArgs struct {
	out    unsafe.Pointer // the output row in the tile's first slice
	rows   unsafe.Pointer // int32 row table (rowIdx32: entry iv−lo2 is row iv), the assembly's
	cache  unsafe.Pointer // the worker's rowCache, fusedTile512's
	stride int64          // bytes from the row in one slice of the tile to the next
	h      int64          // slices in the tile, 1..zBlock
	n      int64          // entries, 1..projBlock
	c0     int64          // the hull of the entries' covered columns:
	c1     int64          // the least c0 and the greatest c1
	lo2    int32          // lo − 2: the global row of the row table's first entry
	hi     int32          // first global detector row past the readable ones
	nu     int32          // detector columns per row
	ent    [projBlock]projArgs
}

// projArgs is one projection's entry of a launch: its samples, its covered
// span [c0,c1) (never empty) with the interior [f0,f1) inside it, and the
// row constants of its coordinates.
type projArgs struct {
	data unsafe.Pointer // base of projection s's samples
	c0   int64          // first covered column (inclusive)
	c1   int64          // last covered column (exclusive)
	f0   int64          // first interior column (inclusive)
	f1   int64          // last interior column (exclusive)
	ax   float32
	ay   float32
	az   float32
	xc   float32
	zc   float32
	yc   [zBlock]float32 // v's row constant, one per slice
}

// initTileArgs fills the fields of a worker's argument block that all its
// launches share: the int32 row table prepareSIMD built if the launch runs
// the assembly, the window extents, the worker's row cache and the distance
// between a tile's slices, stride floats.
func (a *projAccess) initTileArgs(args *tileArgs, stride int, cache *rowCache) {
	args.rows = unsafe.Pointer(unsafe.SliceData(a.rowIdx32))
	args.cache = unsafe.Pointer(cache)
	args.stride = int64(stride) * 4
	args.lo2, args.hi, args.nu = int32(a.lo-2), int32(a.hi), int32(a.nu)
}

// launchTile back-projects the entries of args into the output row at rows
// in args.h slices, through the spelling accumulateSlab chose for the
// launch. rows starts at the row in the first slice and the row in each
// further slice lies args.stride bytes on. In each entry, [f0,f1) must be
// interior in every one of the slices and a sub-span of [c0,c1) (possibly
// empty: f0 == f1): the spelling's column groups wholly inside it take the
// unguarded body, every other covered column the guarded texture-border
// one, and a column outside [c0,c1) is not touched for that projection.
func (a *projAccess) launchTile(args *tileArgs, rows []float32) {
	args.out = unsafe.Pointer(unsafe.SliceData(rows))
	switch a.arith {
	case device.ArithmeticAVX512:
		fusedTile512(args)
	case device.ArithmeticAVX2:
		fusedTileAVX2(args)
	default:
		a.fusedTileGo(args)
	}
}

// fusedTileGo is the assembly in Go: where fusedTileAVX2 evaluates eight
// columns in a vector, this walks them one at a time (the columns never mix,
// so the order is free), an entry at a time in ascending s. The groups
// fusedTileAVX2 runs through its unguarded body are the columns fastCols
// takes. It reads the samples through the int row table, so no buffer is
// too large for it.
func (a *projAccess) fusedTileGo(args *tileArgs) {
	for i := range args.ent[:args.n] {
		e := &args.ent[i]
		c0, c1 := int(e.c0), int(e.c1)
		g0, g1 := (int(e.f0)+simdLanes-1)&^(simdLanes-1), int(e.f1)&^(simdLanes-1)
		if g0 >= g1 {
			g0, g1 = c0, c0
		}
		a.guardedCols(args, e, c0, g0)
		a.fastCols(args, e, g0, g1)
		a.guardedCols(args, e, g1, c1)
	}
}

// fastCols runs the unguarded body of entry e on columns [g0,g1). Per
// column the z-invariant u, w, rz, x, iu, eu, rz² and ay·i are computed once
// and the slice loop runs inside. A function of its own, with the row
// constants in locals, so that this loop nest and nothing else gets the
// registers.
//
// The loads run on raw pointers: rowSpans proved iu ∈ [0, nu−2] and
// iv ∈ [lo, hi−2] in every slice for every column handed to this function
// (TestTileSpansSound fuzzes that proof), so the bounds checks the compiler
// cannot see past are discharged analytically instead of per element.
// x, y ≥ 0 there, so truncation is floor.
func (a *projAccess) fastCols(args *tileArgs, e *projArgs, g0, g1 int) {
	dp := e.data
	rp := unsafe.Pointer(unsafe.SliceData(a.rowOff[2:]))
	lo := a.lo
	stride := args.stride
	yc := e.yc[:args.h]
	ax, ay, az, xc, zc := e.ax, e.ay, e.az, e.xc, e.zc
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

// guardedCols runs the guarded body of entry e on columns [g0,g1): the
// contract's coordinates — u and w, and what follows from them, once per
// column, v per slice — with floor32, not truncation, because
// border coordinates may be negative, and eu and ev taken from that floor.
// Then the footprint's origin is clamped to columns [−2, nu] and rows
// [lo−2, hi], where the store holds the texture border as data (the apron
// and the row table's zero-slot entries): a neighbour outside the readable
// window loads exactly +0, a footprint beyond the clamp would have loaded
// four of them and still does, and a conversion of a NaN or a huge floor,
// whatever integer the host makes of it, lands inside the store. A resident
// column is untouched by the clamp and computes what fastCols computes.
func (a *projAccess) guardedCols(args *tileArgs, e *projArgs, g0, g1 int) {
	rowOff, lo, hi, nu := a.rowOff, a.lo, a.hi, a.nu
	for i := g0; i < g1; i++ {
		rz := 1 / laneAt(i, e.az, e.zc)
		x := float32(laneAt(i, e.ax, e.xc) * rz)
		fx := floor32(x)
		eu := x - fx
		iu := min(max(int(fx), -2), nu)
		rz2 := rz * rz
		op := unsafe.Add(args.out, i*4)
		for _, yc := range e.yc[:args.h] {
			y := float32(laneAt(i, e.ay, yc) * rz)
			fy := floor32(y)
			ev := y - fy
			ivr := min(max(int(fy), lo-2), hi) - lo
			r0 := unsafe.Add(e.data, (rowOff[ivr+2]+iu)*4)
			r1 := unsafe.Add(e.data, (rowOff[ivr+3]+iu)*4)
			p00, p01 := *(*float32)(r0), *(*float32)(unsafe.Add(r0, 4))
			p10, p11 := *(*float32)(r1), *(*float32)(unsafe.Add(r1, 4))
			t1 := p00 + float32(eu*(p01-p00))
			t2 := p10 + float32(eu*(p11-p10))
			*(*float32)(op) += float32(rz2 * (t1 + float32(ev*(t2-t1))))
			op = unsafe.Add(op, args.stride)
		}
	}
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
	a.rowIdx32 = resized(a.rowIdx32, len(a.rowOff))
	for i, r := range a.rowOff {
		a.rowIdx32[i] = int32(r)
	}
	return true
}
