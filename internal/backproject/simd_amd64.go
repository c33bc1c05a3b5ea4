//go:build amd64

package backproject

import (
	"unsafe"

	"distfdk/internal/cpufeat"
)

// simdAvailable gates the dispatch to the assembly: it needs AVX2 (and an
// OS that saves YMM state), probed once at startup.
func simdAvailable() bool { return cpufeat.AVX2() }

// simdRowArgs carries one (row, projection, k-tile) launch into the
// assembly kernel, which addresses the fields by name (go_asm.h).
type simdRowArgs struct {
	data   unsafe.Pointer // base of projection s's samples
	rows   unsafe.Pointer // int32 row-offset table (rowIdx32)
	out    unsafe.Pointer // the output row in the tile's first slice
	stride int64          // bytes from the row in one slice of the tile to the next
	h      int64          // slices in the tile, 1..zBlock
	c0     int64          // first covered column (inclusive)
	c1     int64          // last covered column (exclusive)
	f0     int64          // first interior column (inclusive)
	f1     int64          // last interior column (exclusive)
	winMax int64          // largest window base whose 9-float read stays inside the buffer
	lo     int32          // first readable global detector row
	nu     int32          // detector columns per row
	nrows  int32          // readable detector rows (hi − lo)
	ax     float32
	ay     float32
	az     float32
	xc     float32
	zc     float32
	yc     [zBlock]float32 // v's row constant, one per slice
}

// fusedTileAVX2 back-projects the covered columns [c0,c1) of one volume row
// in the h slices of a k-tile, for one projection whose u and w are the
// same in all of them, with 8-wide AVX2 vectors per the SIMD coordinate
// contract in simd.go: groups wholly inside the interior sub-span [f0,f1)
// run the unguarded body, the rest run the guarded texture-border body.
// Implemented in simd_amd64.s; requires AVX2.
//
//go:noescape
func fusedTileAVX2(a *simdRowArgs)

// rcpNR returns the simd contract's reciprocal of w: the hardware RCPSS
// approximation refined by one Newton–Raphson step, rcp·(2 − w·rcp).
// RCPSS and RCPPS share the same approximation per lane, so this scalar
// helper reproduces the vector kernel's reciprocal bit-for-bit (asserted
// end-to-end by TestSIMDSpanMatchesGuardedEmulation). Requires AVX;
// only reachable behind simdAvailable or an explicit cpufeat gate.
//
//go:noescape
func rcpNR(w float32) float32

// initSpanArgs fills the fields of the assembly kernel's argument block
// that every row of projection s shares: the projAccess addressing
// (projection-s base, int32 row table, window extents) and the column
// coefficients. prepareSIMD must have built rowIdx32.
func (a *projAccess) initSpanArgs(args *simdRowArgs, s int, ax, ay, az float32) {
	args.data = unsafe.Pointer(unsafe.SliceData(a.data[s*a.sStride:]))
	args.rows = unsafe.Pointer(unsafe.SliceData(a.rowIdx32))
	args.lo = int32(a.lo)
	args.nu = int32(a.nu)
	args.nrows = int32(a.hi - a.lo)
	args.winMax = int64(len(a.data) - s*a.sStride - a.rowMax - 9)
	args.ax, args.ay, args.az = ax, ay, az
}

// launchSpan runs the assembly kernel over the non-empty covered columns
// [c0,c1) of one output row in len(yc) ≤ zBlock slices that share xc and
// zc, through an argument block initSpanArgs prepared for the projection.
// rows starts at the row in the first slice and the row in each further
// slice lies stride floats on. [f0,f1) must be interior in every one of the
// slices and a sub-span of [c0,c1) (possibly empty: f0 == f1).
func launchSpan(args *simdRowArgs, rows []float32, stride int, c0, c1, f0, f1 int, xc, zc float32, yc []float32) {
	args.out = unsafe.Pointer(unsafe.SliceData(rows))
	args.stride = int64(stride) * 4
	args.h = int64(copy(args.yc[:], yc))
	args.c0 = int64(c0)
	args.c1 = int64(c1)
	args.f0 = int64(f0)
	args.f1 = int64(f1)
	args.xc, args.zc = xc, zc
	fusedTileAVX2(args)
}
