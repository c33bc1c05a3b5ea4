//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// AVX2 implementation of the SIMD coordinate contract (see simd.go).
//
// One call covers the supported span [c0,c1) of one volume row in the h
// slices of a k-tile, 1 ≤ h ≤ zBlock (16), for one projection whose u and w
// do not depend on z (the caller proves that, or passes h = 1). Per 8-column
// group the z-invariant work — the coordinates u, w and ay·i at the group's
// columns, the divide, x, iu, eu, rz², the contiguous-window test — is done
// once; the slice loop inside recomputes only what v moves: v, y, iv, ev,
// the four sample loads (SAMPLE) and the accumulate into the slice's row.
// Groups wholly inside the interior sub-span [f0,f1) run the unguarded fast
// body, every other covered group the guarded body: floor instead of
// truncation, the footprint's origin clamped into the store's zero apron
// (device.Layout: the texture border is data) and a lane mask on the
// accumulate, all eight lanes live or not. Both bodies read the same
// coordinates and fetch through the one SAMPLE, so a column computes the
// same value whichever body its group lands in — the decomposition
// invariance the kernel promises.
//
// Register plan, held across the whole kernel:
//   Y0        = the group's columns float32(gb+j), stepped by 8.0 per group
//               (an exact add while the columns stay below 2²⁴)
//   Y4        = the group's w, evaluated one group ahead
//   Y6        = 1.0 broadcast (the dividend of rz = 1/w)
//   per group: Y2 = ay·column, Y8 = rz, Y9 = eu, Y10 = rz², Y11 = iu+2,
//              Y3 = window lane
//   Y1, Y5, Y7, Y12..Y15 = slice-loop scratch
//   AX = args   DI = data − 2 floats (iu+2 indexes it)   SI = rows
//   DX = out (row in the first slice)   R10 = group base
//   R8, R11 = fast groups' first base and end   R12 = 4·h, the end of yc
//   BX = row in the current slice   R9 = 4·slice (offset into yc)
//   CX = window base or −1   R13, R14 = scratch
//
// The coordinates are the contract's direct evaluation op·float32(i) + oc
// at every column, a VMULPS then a VADDPS (never fused): u and w per group,
// and per slice v = ay·i + yc[k], the product shared by the tile's slices.
//
// Fast-body soundness: every lane of a fast group satisfies the interior
// residency predicate under this exact arithmetic in every slice of the
// tile (rowSpans verifies the span endpoints in the tile's two end slices;
// v is monotone in k and the analytic span's half-pixel margin covers the
// in-between columns), so the unguarded loads stay in bounds, the 8-byte
// pair loads cover data[idx] and data[idx+1] inside one detector row, and
// the truncating float→int conversion equals floor (x, y ≥ 0).
// Guarded-body soundness: iu is clamped to [−2, nu] and iv to [lo−2, hi]
// (which also absorbs the conversion's integer-indefinite on a NaN or huge
// lane), so every lane, dead or live, loads inside the store: columns
// [−2, nu+2) of a resident row or of the zero slot, which the row table
// names on either side of the resident rows. A neighbour outside the window
// is a stored +0, and a footprint beyond the clamp is four of them, as
// before it. eu and ev come from the unclamped floor. Dead lanes may compute
// garbage (even NaN) — the accumulate is mask-suppressed, and lane
// arithmetic never mixes lanes. Both bodies' 9-float windows may run up to 7
// floats past a row's right apron: the layout's slack keeps that readable.

// lane07: the int32 vector {0,1,...,7} for the first columns and lane masks.
DATA lane07<>+0(SB)/4, $0
DATA lane07<>+4(SB)/4, $1
DATA lane07<>+8(SB)/4, $2
DATA lane07<>+12(SB)/4, $3
DATA lane07<>+16(SB)/4, $4
DATA lane07<>+20(SB)/4, $5
DATA lane07<>+24(SB)/4, $6
DATA lane07<>+28(SB)/4, $7
GLOBL lane07<>(SB), RODATA|NOPTR, $32

DATA one32<>+0(SB)/4, $0x3f800000 // float32(1)
GLOBL one32<>(SB), RODATA|NOPTR, $4

DATA eight32<>+0(SB)/4, $0x41000000 // float32(8): the column step
GLOBL eight32<>(SB), RODATA|NOPTR, $4

DATA seven32<>+0(SB)/4, $7
GLOBL seven32<>(SB), RODATA|NOPTR, $4

// notseven: any bit set under this mask puts a window lane outside [0,7].
DATA notseven<>+0(SB)/8, $0xfffffff8fffffff8
DATA notseven<>+8(SB)/8, $0xfffffff8fffffff8
DATA notseven<>+16(SB)/8, $0xfffffff8fffffff8
DATA notseven<>+24(SB)/8, $0xfffffff8fffffff8
GLOBL notseven<>(SB), RODATA|NOPTR, $32

// −2 in every lane: the guarded body's lower clamp, the bias of iu, and —
// as the bit mask ^1 — the test that a lane's row is lane 0's or the next.
DATA minus2v<>+0(SB)/8, $0xfffffffefffffffe
DATA minus2v<>+8(SB)/8, $0xfffffffefffffffe
DATA minus2v<>+16(SB)/8, $0xfffffffefffffffe
DATA minus2v<>+24(SB)/8, $0xfffffffefffffffe
GLOBL minus2v<>(SB), RODATA|NOPTR, $32

// Frame layout (offsets from the pseudo-SP):
//   tmp-8(SP)     8B   GPR→vector broadcast staging
//   maskS-40(SP) 32B   guarded: active-lane mask (per group)
//   lo2v-72(SP)  32B   broadcast lo−2: the row table's first entry
//   nuv-104(SP)  32B   broadcast clamp bounds of the guarded body
//   hiv-136(SP)  32B
//   axv-168(SP)  32B   broadcast column coefficients and row constants,
//   ayv-200(SP)  32B   the coordinates' memory operands
//   azv-232(SP)  32B
//   xcv-264(SP)  32B
//   zcv-296(SP)  32B
//   eightv-328(SP) 32B   broadcast 8.0, the column step
//
// The grid of group bases is 8-aligned, so the per-group test
// "base ≥ f0 && base+8 ≤ f1" is exactly "base ∈ [fs, fe)" with
// fs = (f0+7)&^7 and fe = f1&^7: the fast groups are one contiguous run.

// COORDS evaluates the contract's coordinates at the group's eight columns
// Y0 — op·i + oc, a VMULPS then a VADDPS, never fused — and what follows
// from them whichever body runs the group, then steps Y0 to the next group
// and evaluates its w into Y4 there, so that the next group's divide need
// not wait for it. Out: Y2 = ay·i, Y8 = rz, Y9 = x, Y10 = rz².
#define COORDS \
	VDIVPS Y4, Y6, Y8;             \ // rz = 1/w, the exact divide
	VMULPS axv-168(SP), Y0, Y9;    \
	VADDPS xcv-264(SP), Y9, Y9;    \ // u
	VMULPS ayv-200(SP), Y0, Y2;    \ // ay·i
	VADDPS eightv-328(SP), Y0, Y0; \ // the next group's columns
	VMULPS azv-232(SP), Y0, Y4;    \
	VADDPS zcv-296(SP), Y4, Y4;    \ // its w
	VMULPS Y9, Y8, Y9;             \ // x = u·rz
	VMULPS Y8, Y8, Y10               // rz²

// WINDOW is the contiguous-window test, once per group. When a slice's
// eight lanes share one detector row, the eight footprints sit inside two
// 9-float windows per edge starting at base = min(iu₀, iu₇), provided every
// lane's iu − base is in [0,7]: x is monotone along a row analytically, but
// float32 noise on a nearly constant x is not, so all eight lanes are
// tested, not the two ends. In: Y11 = iu+2 ≥ 0. Out: Y3 = window lane,
// CX = base, or −1 when the group must gather.
#define WINDOW(out) \
	VPBROADCASTD X11, Y13;           \
	VPBROADCASTD seven32<>(SB), Y14; \
	VPERMD       Y11, Y14, Y14;      \
	VPMINSD      Y13, Y14, Y13;      \ // base
	VPSUBD       Y13, Y11, Y3;       \ // window lane = iu − base
	MOVQ         $-1, CX;            \
	VPTEST       notseven<>(SB), Y3; \
	JNZ          out;                \
	VMOVD        X13, CX;            \
out:

// SAMPLE and SAMPLE_COLD fetch a slice's eight 2×2 footprints and blend them
// — the one spelling of it, expanded in both bodies: SAMPLE in the slice
// loop, where the first fetch below falls through to the blend, SAMPLE_COLD
// with the other three out of line behind the body. In: Y13 = iv (a global row in
// [lo−2, hi]), Y11 = iu+2, Y3 and CX from WINDOW, Y9 = eu, Y12 = ev,
// Y10 = rz². Out: Y13 = rz²·(t1 + ev·(t2 − t1)). The fetch is the cheapest
// of four that the lanes allow:
//   one row, one window        two loads and two permutes per edge
//   two adjacent rows, one window
//                              the same for three rows, and a per-lane blend
//   one row, no window         the two row offsets broadcast, pair gathers
//   otherwise                  the row offsets gathered, pair gathers
// Each gather zeroes its mask register and merges into its destination, so
// masks are remade and destinations zeroed every time (the fresh destination
// also snaps the false loop-carried dependency gather merging would create).
// Pair gathers: p00 and p01 are adjacent float32s, so one 64-bit gather
// fetches the whole top edge of a footprint (same for p10/p11) — half the
// load-port traffic of four 32-bit gathers. Each VPGATHERDQ takes four lanes
// of 32-bit indices from an X register; the VPERMQ pre-swizzle makes those
// quartets lanes {0,1,4,5} and {2,3,6,7}, so that one in-lane shuffle per
// neighbour de-interleaves the four results into p00 p01 p10 p11 in column
// order (per 128-bit half: the even floats of both sources, or the odd
// ones). The blend is full-width, the same operations per lane in the same
// order as the Go spelling.
#define SAMPLE(tworows, bcast, blend) \
	VPBROADCASTD X13, Y14;                 \
	VPCMPEQD     Y13, Y14, Y1;             \
	VPMOVMSKB    Y1, R13;                  \
	CMPL         R13, $-1;                 \
	JNE          tworows;                  \
	VMOVD        X13, R13;                 \
	SUBL         simdRowArgs_lo2(AX), R13; \ // table index, identical in every lane
	TESTQ        CX, CX;                   \
	JS           bcast;                    \
	MOVL         (SI)(R13*4), R14;         \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Y3, Y13;     \ // p00
	VPERMPS      4(DI)(R14*4), Y3, Y14;    \ // p01
	MOVL         4(SI)(R13*4), R14;        \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Y3, Y15;     \ // p10
	VPERMPS      4(DI)(R14*4), Y3, Y5;     \ // p11
blend: \
	VSUBPS       Y13, Y14, Y14;            \ // p01 − p00
	VMULPS       Y9, Y14, Y14;             \
	VADDPS       Y14, Y13, Y13;            \ // t1
	VSUBPS       Y15, Y5, Y5;              \ // p11 − p10
	VMULPS       Y9, Y5, Y5;               \
	VADDPS       Y5, Y15, Y15;             \ // t2
	VSUBPS       Y13, Y15, Y15;            \ // t2 − t1
	VMULPS       Y12, Y15, Y15;            \
	VADDPS       Y15, Y13, Y13;            \ // t1 + ev·(t2−t1)
	VMULPS       Y10, Y13, Y13             // ·rz²

#define SAMPLE_COLD(tworows, bcast, gather, pairs, blend) \
tworows: \
	TESTQ        CX, CX;                   \
	JS           gather;                   \
	VPBROADCASTD seven32<>(SB), Y15;       \
	VPERMD       Y13, Y15, Y15;            \
	VPMINSD      Y14, Y15, Y14;            \ // m = min(iv₀, iv₇)
	VPSUBD       Y14, Y13, Y1;             \
	VPTEST       minus2v<>(SB), Y1;        \
	JNZ          gather;                   \ // a lane on neither row m nor m+1
	VPSLLD       $31, Y1, Y1;              \ // blend mask: the lanes on row m+1
	VMOVD        X14, R13;                 \
	SUBL         simdRowArgs_lo2(AX), R13; \
	MOVL         (SI)(R13*4), R14;         \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Y3, Y13;     \
	VPERMPS      4(DI)(R14*4), Y3, Y14;    \
	MOVL         4(SI)(R13*4), R14;        \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Y3, Y15;     \
	VPERMPS      4(DI)(R14*4), Y3, Y5;     \
	VBLENDVPS    Y1, Y15, Y13, Y13;        \ // p00
	VBLENDVPS    Y1, Y5, Y14, Y14;         \ // p01
	MOVL         8(SI)(R13*4), R14;        \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Y3, Y7;      \
	VBLENDVPS    Y1, Y7, Y15, Y15;         \ // p10
	VPERMPS      4(DI)(R14*4), Y3, Y7;     \
	VBLENDVPS    Y1, Y7, Y5, Y5;           \ // p11
	JMP          blend;                    \
bcast: \
	VPBROADCASTD (SI)(R13*4), Y14;         \ // r0
	VPBROADCASTD 4(SI)(R13*4), Y15;        \ // r1
	JMP          pairs;                    \
gather: \
	VPSUBD       lo2v-72(SP), Y13, Y13;    \ // table index per lane
	VPCMPEQD     Y1, Y1, Y1;               \
	VPXOR        Y14, Y14, Y14;            \
	VPGATHERDD   Y1, (SI)(Y13*4), Y14;     \ // r0
	VPCMPEQD     Y1, Y1, Y1;               \
	VPXOR        Y15, Y15, Y15;            \
	VPGATHERDD   Y1, 4(SI)(Y13*4), Y15;    \ // r1
pairs: \
	VPADDD       Y11, Y14, Y14;            \ // idx00 per lane
	VPADDD       Y11, Y15, Y15;            \ // idx10 per lane
	VPERMQ       $0xD8, Y14, Y14;          \
	VPERMQ       $0xD8, Y15, Y15;          \
	VPCMPEQD     Y1, Y1, Y1;               \
	VPXOR        Y13, Y13, Y13;            \
	VPGATHERDQ   Y1, (DI)(X14*4), Y13;     \ // lanes 0,1,4,5: [p00|p01]
	VPCMPEQD     Y1, Y1, Y1;               \
	VPXOR        Y5, Y5, Y5;               \
	VPGATHERDQ   Y1, (DI)(X15*4), Y5;      \ // lanes 0,1,4,5: [p10|p11]
	VEXTRACTI128 $1, Y14, X14;             \
	VEXTRACTI128 $1, Y15, X15;             \
	VPCMPEQD     Y1, Y1, Y1;               \
	VPXOR        Y7, Y7, Y7;               \
	VPGATHERDQ   Y1, (DI)(X14*4), Y7;      \ // lanes 2,3,6,7: [p00|p01]
	VPCMPEQD     Y1, Y1, Y1;               \
	VPXOR        Y14, Y14, Y14;            \
	VPGATHERDQ   Y1, (DI)(X15*4), Y14;     \ // lanes 2,3,6,7: [p10|p11]
	VSHUFPS      $0x88, Y14, Y5, Y15;      \ // p10
	VSHUFPS      $0xDD, Y14, Y5, Y5;       \ // p11
	VSHUFPS      $0xDD, Y7, Y13, Y14;      \ // p01
	VSHUFPS      $0x88, Y7, Y13, Y13;      \ // p00
	JMP          blend

// func fusedTileAVX2(a *simdRowArgs)
TEXT ·fusedTileAVX2(SB), NOSPLIT, $328-8
	MOVQ a+0(FP), AX
	MOVQ simdRowArgs_data(AX), DI
	SUBQ $8, DI                   // iu+2 indexes the samples
	MOVQ simdRowArgs_rows(AX), SI // int32 table: entry iv−(lo−2) is row iv
	MOVQ simdRowArgs_out(AX), DX

	// Broadcast the column coefficients and row constants once.
	VBROADCASTSS simdRowArgs_ax(AX), Y9
	VMOVUPS      Y9, axv-168(SP)
	VBROADCASTSS simdRowArgs_ay(AX), Y9
	VMOVUPS      Y9, ayv-200(SP)
	VBROADCASTSS simdRowArgs_az(AX), Y9
	VMOVUPS      Y9, azv-232(SP)
	VBROADCASTSS simdRowArgs_xc(AX), Y9
	VMOVUPS      Y9, xcv-264(SP)
	VBROADCASTSS simdRowArgs_zc(AX), Y9
	VMOVUPS      Y9, zcv-296(SP)
	VPBROADCASTD simdRowArgs_lo2(AX), Y9
	VMOVDQU      Y9, lo2v-72(SP)
	VPBROADCASTD simdRowArgs_nu(AX), Y9
	VMOVDQU      Y9, nuv-104(SP)
	VPBROADCASTD simdRowArgs_hi(AX), Y9
	VMOVDQU      Y9, hiv-136(SP)
	VBROADCASTSS eight32<>(SB), Y9
	VMOVUPS      Y9, eightv-328(SP)
	VBROADCASTSS one32<>(SB), Y6

	// The fast groups on the 8-aligned group grid, and the end of yc.
	MOVQ simdRowArgs_f0(AX), R8
	ADDQ $7, R8
	ANDQ $-8, R8
	MOVQ simdRowArgs_f1(AX), R11
	ANDQ $-8, R11
	MOVQ simdRowArgs_h(AX), R12
	SHLQ $2, R12

	// The first group holds c0; its columns as floats, and its w.
	MOVQ         simdRowArgs_c0(AX), R10
	ANDQ         $-8, R10
	MOVL         R10, tmp-8(SP)
	VPBROADCASTD tmp-8(SP), Y0
	VPADDD       lane07<>(SB), Y0, Y0
	VCVTDQ2PS    Y0, Y0
	VMULPS       azv-232(SP), Y0, Y4
	VADDPS       zcv-296(SP), Y4, Y4

group:
	CMPQ R10, simdRowArgs_c1(AX)
	JGE  done
	CMPQ R10, R8
	JL   slow
	CMPQ R10, R11
	JGE  slow

fast:
	COORDS
	// ---------------- fast body: 8 interior columns -------------------
	// Every group in [fs, fe) sits wholly inside the interior [f0,f1)
	// and is automatically fully active (f0≥c0, f1≤c1).
	// Integer part by truncation (== floor: x ≥ 0).
	VCVTTPS2DQ Y9, Y11                 // iu
	VCVTDQ2PS  Y11, Y13
	VSUBPS     Y13, Y9, Y9             // eu = x − float32(iu)
	VPSUBD     minus2v<>(SB), Y11, Y11 // iu+2
	WINDOW(fwin)
	LEAQ       (DX)(R10*4), BX
	XORQ       R9, R9

fslice:
	VBROADCASTSS simdRowArgs_yc(AX)(R9*1), Y12
	VADDPS       Y12, Y2, Y12 // v = ay·i + yc[k]
	VMULPS       Y12, Y8, Y12 // y = v·rz
	VCVTTPS2DQ   Y12, Y13     // iv
	VCVTDQ2PS    Y13, Y14
	VSUBPS       Y14, Y12, Y12 // ev = y − float32(iv)
	SAMPLE(frows2, fbcast, fblend)

	// A plain unmasked accumulate: the group is fully active.
	VADDPS  (BX), Y13, Y13
	VMOVUPS Y13, (BX)
	ADDQ    simdRowArgs_stride(AX), BX
	ADDQ    $4, R9
	CMPQ    R9, R12
	JL      fslice

	ADDQ $8, R10
	CMPQ R10, R11
	JL   fast
	JMP  group

	SAMPLE_COLD(frows2, fbcast, fgather, fpairs, fblend)

slow:
	// ---------------- guarded body: texture-border group --------------
	COORDS
	// Active-lane mask: lane j live iff c0 ≤ gb+j < c1:
	// (lane07 > c0−gb−1) AND (c1−gb > lane07).
	MOVQ         simdRowArgs_c0(AX), R13
	SUBQ         R10, R13
	DECQ         R13
	MOVL         R13, tmp-8(SP)
	VPBROADCASTD tmp-8(SP), Y1
	VMOVDQU      lane07<>(SB), Y3
	VPCMPGTD     Y1, Y3, Y7
	MOVQ         simdRowArgs_c1(AX), R13
	SUBQ         R10, R13
	MOVL         R13, tmp-8(SP)
	VPBROADCASTD tmp-8(SP), Y1
	VPCMPGTD     Y3, Y1, Y1
	VPAND        Y1, Y7, Y7
	VMOVDQU      Y7, maskS-40(SP)

	// Floor instead of truncation — border x, y may be negative — then iu
	// clamped to the apron, [−2, nu], and biased like the fast body's.
	VROUNDPS   $1, Y9, Y11
	VSUBPS     Y11, Y9, Y9              // eu = x − floor(x)
	VCVTTPS2DQ Y11, Y11                 // iu
	VPMAXSD    minus2v<>(SB), Y11, Y11
	VPMINSD    nuv-104(SP), Y11, Y11
	VPSUBD     minus2v<>(SB), Y11, Y11  // iu+2
	WINDOW(swin)
	LEAQ       (DX)(R10*4), BX
	XORQ       R9, R9

sslice:
	VBROADCASTSS simdRowArgs_yc(AX)(R9*1), Y12
	VADDPS       Y12, Y2, Y12          // v = ay·i + yc[k]
	VMULPS       Y12, Y8, Y12          // y
	VROUNDPS     $1, Y12, Y13
	VSUBPS       Y13, Y12, Y12         // ev = y − floor(y)
	VCVTTPS2DQ   Y13, Y13              // iv, clamped to [lo−2, hi]: the row
	VPMAXSD      lo2v-72(SP), Y13, Y13 // table's zero-slot entries
	VPMINSD      hiv-136(SP), Y13, Y13
	SAMPLE(srows2, sbcast, sblend)

	// row[gb..gb+8) += the sample, masked load/add/store.
	VMOVDQU    maskS-40(SP), Y7
	VMASKMOVPS (BX), Y7, Y14
	VADDPS     Y13, Y14, Y14
	VMASKMOVPS Y14, Y7, (BX)
	ADDQ       simdRowArgs_stride(AX), BX
	ADDQ       $4, R9
	CMPQ       R9, R12
	JL         sslice
	ADDQ       $8, R10
	JMP        group

	SAMPLE_COLD(srows2, sbcast, sgather, spairs, sblend)

done:
	VZEROUPPER
	RET
