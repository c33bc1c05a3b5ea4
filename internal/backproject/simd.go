package backproject

import (
	"math"
	"unsafe"
)

// The fast kernel walks a volume row eight columns at a time: the three
// homogeneous coordinate lanes advance as whole vectors, one exact
// reciprocal per column serves every slice of a k-tile, and the 2×2
// bilinear footprints are fetched per lane. It re-anchors at fixed
// *absolute* columns b = i&^31, which makes the coordinate at column i a
// pure function of (i, row constants) — the property that keeps every
// slab/window decomposition of the same reconstruction bit-identical.
//
// The coordinate contract (the value every consumer must agree on):
//
//	anchor  b  = i &^ (reanchorPeriod−1)
//	lane    j  = i & 7                       (8 lanes per group)
//	init       = op·float32(b+j) + oc        (product rounded, then added)
//	advance    = + op·8 per 8-column group   (power-of-two step: exact)
//	value(i)   = init + ((i−b)>>3) step additions
//	rz         = 1 / w                       (the IEEE-754 float32 divide)
//	x, y       = u·rz, v·rz;  weight = rz·rz
//	sample     = p00 + eu·(p01−p00) blended by ev, each product rounded
//	out[i]    += weight·sample               (product rounded, then added)
//
// Every operation is a correctly rounded IEEE-754 float32 operation and no
// product is fused into the add or subtract it feeds, so the contract has
// one value on every host. It is spelled twice: fusedTileAVX2
// (simd_amd64.s) steps the eight lanes together in vectors, fusedTileGo
// below walks the same lanes one at a time, and writes a product that feeds
// an add or a subtract as float32(a*b) — the conversion the Go
// specification defines as preventing fusion on targets that have a fused
// multiply-add (make fuse-lint checks the compiled code). accumulateSlab
// picks the assembly where the host has AVX2 and the storage offsets fit
// its 32-bit gather indices, the Go spelling otherwise; the bytes and the
// counters do not depend on the choice. laneAt and simdCoords are the
// contract's per-column definition, which the span predicates (footprint)
// and the guarded columns evaluate and the tests hold both spellings to.

// simdLanes is the width of the kernel's column groups: 8 float32 lanes.
const simdLanes = 8

// laneAt returns the contract's value at absolute column i of the
// coordinate lane op·i + oc — bit-for-bit what lane i&7 of either spelling
// holds when its group reaches i: direct evaluation at the anchor offset by
// the lane index, then (i−b)/8 exact-step additions.
func laneAt(i int, op, oc float32) float32 {
	b := i &^ (reanchorPeriod - 1)
	c := float32(op*float32(b|i&(simdLanes-1))) + oc
	step := float32(op * simdLanes)
	for t := (i - b) >> 3; t > 0; t-- {
		c += step
	}
	return c
}

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

// fusedTileGo is fusedTileAVX2 in Go. Where the assembly holds eight lanes
// in a vector and steps them together, this walks one lane at a time down
// the row (the lanes never mix, so the order is free; blocking the walk so
// that the rows stay in the first-level cache between lanes measured no
// different on a 4096-column row in eight slices). It reads the samples
// through the int row table, so no buffer is too large for it.
func (a *projAccess) fusedTileGo(args *simdRowArgs) {
	c0, c1 := int(args.c0), int(args.c1)
	g0, g1 := (int(args.f0)+simdLanes-1)&^(simdLanes-1), int(args.f1)&^(simdLanes-1)
	if g0 >= g1 {
		g0, g1 = c0, c0
	}
	a.guardedCols(args, c0, g0)
	for j := 0; j < simdLanes; j++ {
		a.fastLane(args, j, g0, g1)
	}
	a.guardedCols(args, g1, c1)
}

// fastLane runs the unguarded body on lane j's column of every group in
// [g0,g1), both multiples of 8. Per anchor segment the lane starts from the
// direct expression and steps through every group, sampled or not (each
// addition rounds, so skipping one would change the values after it): u and
// w in registers, v for the segment's four groups in every slice up front,
// so that the sampling loop carries no dependency through memory. Per column
// the z-invariant rz, x, iu, eu and rz² are computed once and the slice loop
// runs inside. A function of its own, reading the row constants from the
// argument block where it needs them, so that this loop nest and nothing
// else gets the registers.
//
// The loads run on raw pointers: rowSpans proved iu ∈ [0, nu−2] and
// iv ∈ [lo, hi−2] in every slice for every column handed to this function
// (TestTileSpansSound fuzzes that proof), so the bounds checks the compiler
// cannot see past are discharged analytically instead of per element.
// x, y ≥ 0 there, so truncation is floor.
func (a *projAccess) fastLane(args *simdRowArgs, j, g0, g1 int) {
	dp := args.data
	rp := unsafe.Pointer(unsafe.SliceData(a.rowOff[2:]))
	lo := a.lo
	h := int(args.h)
	stride := args.stride
	ax8, ay8, az8 := float32(args.ax*simdLanes), float32(args.ay*simdLanes), float32(args.az*simdLanes)
	var vs [reanchorPeriod / simdLanes][zBlock]float32
	for b := g0 &^ (reanchorPeriod - 1); b < g1; b += reanchorPeriod {
		fl := float32(b + j)
		u := float32(args.ax*fl) + args.xc
		w := float32(args.az*fl) + args.zc
		vl := float32(args.ay * fl)
		for k, yc := range args.yc[:h] {
			v := vl + yc
			for g := range vs {
				vs[g][k] = v
				v += ay8
			}
		}
		// g0, g1 and the group bases are multiples of 8, so the lane's
		// column b+j+8g lies in [g0,g1) exactly when its group does.
		g := 0
		for col, end := b+j, min(b+reanchorPeriod, g1); col < end; col += simdLanes {
			if col >= g0 {
				rz := 1 / w
				x := float32(u * rz)
				iu := int(x)
				eu := x - float32(iu)
				rz2 := rz * rz
				op := unsafe.Add(args.out, col*4)
				dpu := unsafe.Add(dp, iu*4)
				for _, v := range vs[g][:h] {
					y := float32(v * rz)
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
			g++
			u += ax8
			w += az8
		}
	}
}

// guardedCols runs the guarded body on columns [g0,g1): the coordinates of
// the contract's per-column definition — u and w, and what follows from
// them, once per column, v per slice — with floor32, not truncation, because
// border coordinates may be negative, and eu and ev taken from that floor.
// Then the footprint's origin is clamped to columns [−2, nu] and rows
// [lo−2, hi], where the store holds the texture border as data (the apron
// and the row table's zero-slot entries): a neighbour outside the readable
// window loads exactly +0, a footprint beyond the clamp would have loaded
// four of them and still does, and a conversion of a NaN or a huge floor,
// whatever integer the host makes of it, lands inside the store. A resident
// column is untouched by the clamp and computes what fastLane computes.
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
