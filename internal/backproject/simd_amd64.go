//go:build amd64

package backproject

import (
	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
)

// hostArithmetic is the widest spelling of the kernel this host runs: the
// 16-lane assembly where it has usable AVX-512 F, VL, DQ and BW, the 8-lane
// one where it has AVX2, the Go one otherwise (each needs an OS that saves
// the state it uses), probed once at startup.
func hostArithmetic() device.Arithmetic {
	switch {
	case cpufeat.AVX512():
		return device.ArithmeticAVX512
	case cpufeat.AVX2():
		return device.ArithmeticAVX2
	}
	return device.ArithmeticScalar
}

// fusedTileAVX2 back-projects each entry of a launch, in ascending s, into
// its covered columns [c0,c1) of one volume row in the h slices of a
// k-tile, for projections whose u and w are the same in all of them, with
// 8-wide AVX2 vectors per the coordinate contract in simd.go: groups wholly
// inside an entry's interior sub-span [f0,f1) run the unguarded body, the
// rest run the guarded texture-border body — what fusedTileGo does lane by
// lane. Implemented in simd_amd64.s; requires AVX2.
//
//go:noescape
func fusedTileAVX2(a *tileArgs)

// fusedTile512 is fusedTileAVX2 with 16-wide AVX-512 vectors and opmask
// registers, its row cache in a.cache, the entries walked inside each
// column group so that the group's slice sums stay in registers across
// them. Implemented in simd512_amd64.s; requires AVX-512 F, VL, DQ and BW.
//
//go:noescape
func fusedTile512(a *tileArgs)

// blockSpans512 makes the entries of one launch, what rowRec makes for each
// projection of the block in l in turn, with the block's projections in the
// lanes of AVX-512 vectors (accumulateSlab runs it where hostArithmetic is
// the 16-lane kernel's): for volume row jf in the args.h slices whose
// indices kf points to, it sets args.n, the entries in ascending s, the
// hull args.c0, args.c1 when n > 0, and adds the launch's samples to ctr.
// Every entry field and every counter equals the scalar path's.
// Implemented in spans512_amd64.s; requires AVX-512 F, VL, DQ and BW.
//
//go:noescape
func blockSpans512(args *tileArgs, l *blockLanes, kf *float32, jf float32, ctr *kernelCounters)
