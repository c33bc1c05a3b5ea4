//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// AVX-512 implementation of the SIMD coordinate contract (see simd.go):
// simd_amd64.s's kernel at sixteen columns per vector.
//
// One call covers the supported span [c0,c1) of one volume row in the h
// slices of a k-tile, 1 ≤ h ≤ zBlock (16), for one projection whose u and w
// do not depend on z, exactly as fusedTileAVX2 does, and with its structure:
// per 16-column group the z-invariant work (u, w and ay·i at the group's
// columns, the divide, x, iu, eu, rz², the contiguous-window test) is done
// once, and the slice loop inside recomputes only what v moves. A group
// with a window whose tile reads no more detector rows than it has slices
// (and than the cache's 12) blends each of those rows horizontally once
// (FILL) into the row cache, and its slice loop does only the vertical
// blend (CACHED); every other group fetches its four samples per slice
// (SAMPLE). A cached group's slice that the cache cannot serve hands off to
// SAMPLE's gather and finishes the group in the plain loop. Groups wholly
// inside the interior sub-span [f0,f1) run the unguarded fast body, every
// other covered group the guarded body: floor instead of truncation, the
// footprint's origin clamped into the store's zero apron (device.Layout:
// the texture border is data) and an opmask on the accumulate. Both bodies
// read the same coordinates and fetch through the same macros, so a column
// computes the same value whichever body its group lands in, cached or not,
// and the same value as in the 8-lane kernel: no lane ever mixes with
// another.
//
// What the width changes:
//   - the group grid is 16-aligned, so the fast groups are the run of bases
//     in [fs, fe) with fs = (f0+15)&^15 and fe = f1&^15;
//   - the lane tests (one row, two adjacent rows, the window, the live
//     lanes) compare into opmask registers and branch on KORTESTW, and the
//     guarded body's lane mask K1 gates a masked load and store;
//   - a window is 17 floats, two 16-float loads and a VPERMPS per footprint
//     edge, up to 15 floats past a row's right apron (device.WindowFloats);
//   - the two-row fetch and its cached twin merge row m+1's lanes in under
//     an opmask instead of a variable blend;
//   - the gather fallback takes two 8-lane pair gathers per footprint edge
//     (VPGATHERDQ: p00 and p01, or p10 and p11, are adjacent floats) and
//     de-interleaves the even and odd floats with VPERMT2PS;
//   - a cached row is 64 bytes, so 12 rows do not fit the frame of a NOSPLIT
//     function (its limit is 792 bytes): the cache is a per-worker buffer
//     the argument block points to (rowCache), 64-byte aligned here, and
//     every broadcast constant lives in Z16–Z31 instead of the frame.
//
// Register plan, held across the whole kernel:
//   Z0        = the group's columns float32(gb+j), stepped by 16.0 per group
//               (an exact add while the columns stay below 2²⁴)
//   Z4        = the group's w, evaluated one group ahead
//   Z6        = 1.0 broadcast (the dividend of rz = 1/w)
//   per group: Z2 = ay·i, Z8 = rz, Z9 = eu, Z10 = rz², Z11 = iu+2,
//              Z3 = window lane, K1 = live lanes (guarded body)
//   Z1, Z5, Z7, Z12..Z15, K2, K3 = slice-loop scratch (Z5 holds the first
//              slice's iv while FILL bounds the rows)
//   Z16 ax  Z17 ay  Z18 az  Z19 xc  Z20 zc    the column coefficients and
//              row constants, broadcast
//   Z21 16.0 (the column step)  Z22 lo−2  Z23 nu  Z24 hi  (clamp bounds)
//   Z25 −2 (the lower clamp, the bias of iu and, as the bit mask ^1, the
//              test that a lane's row is m's or the next)
//   Z26 {0..15} (int32 lanes)  Z27 15 (the last lane, the window's bound)
//   Z28 {0,2,..,30}, Z29 {1,3,..,31}: the pair gathers' de-interleave
//   X30 |yc[h−1] − yc[0]|, the tile's sweep of v   X31 float32(h − 1)
//   AX = args   DI = data − 2 floats (iu+2 indexes it)   SI = rows
//   DX = out (row in the first slice)   R8 = the row cache, 64-aligned
//   R10 = group base   R11 = fast groups' end   R12 = 4·h, the end of yc
//   BX = row in the current slice   R9 = 4·slice (offset into yc)
//   (in FILL, R9 = the cache offset being written and BX its end)
//   CX = window base or −1   R13, R14 = scratch
//
// Frame (offsets from the pseudo-SP):
//   fs-8(SP)     8B   the first fast group's base
//   rbase-12(SP) 4B   64·rmin: 64·iv − rbase is row iv's cache offset
//   rlim-16(SP)  4B   64·(n−1): no t1 is read at or past it
//
// The soundness arguments are fusedTileAVX2's, lane for lane: every lane
// of a fast group is resident in every slice of the tile; the guarded
// body's clamp puts every lane's footprint, dead or live, inside the store;
// FILL reads only rows some lane reads in an end slice, and a slice reads
// the cache only after an unsigned compare has put its rows among the n
// that FILL wrote. Dead lanes may compute garbage — the accumulate's
// opmask suppresses them, and the masked load faults on none of their
// addresses.

// lane015: the int32 vector {0,1,...,15} for the first columns and lane
// masks.
DATA lane015<>+0(SB)/4, $0
DATA lane015<>+4(SB)/4, $1
DATA lane015<>+8(SB)/4, $2
DATA lane015<>+12(SB)/4, $3
DATA lane015<>+16(SB)/4, $4
DATA lane015<>+20(SB)/4, $5
DATA lane015<>+24(SB)/4, $6
DATA lane015<>+28(SB)/4, $7
DATA lane015<>+32(SB)/4, $8
DATA lane015<>+36(SB)/4, $9
DATA lane015<>+40(SB)/4, $10
DATA lane015<>+44(SB)/4, $11
DATA lane015<>+48(SB)/4, $12
DATA lane015<>+52(SB)/4, $13
DATA lane015<>+56(SB)/4, $14
DATA lane015<>+60(SB)/4, $15
GLOBL lane015<>(SB), RODATA|NOPTR, $64

// COORDS evaluates the contract's coordinates at the group's sixteen
// columns Z0 — op·i + oc, a VMULPS then a VADDPS, never fused — and what
// follows from them whichever body runs the group, then steps Z0 to the
// next group and evaluates its w into Z4 there. Out: Z2 = ay·i, Z8 = rz,
// Z9 = x, Z10 = rz².
#define COORDS \
	VDIVPS Z4, Z6, Z8;  \ // rz = 1/w, the exact divide
	VMULPS Z16, Z0, Z9; \
	VADDPS Z19, Z9, Z9; \ // u
	VMULPS Z17, Z0, Z2; \ // ay·i
	VADDPS Z21, Z0, Z0; \ // the next group's columns
	VMULPS Z18, Z0, Z4; \
	VADDPS Z20, Z4, Z4; \ // its w
	VMULPS Z9, Z8, Z9;  \ // x = u·rz
	VMULPS Z8, Z8, Z10    // rz²

// WINDOW is the contiguous-window test, once per group: the sixteen
// footprints sit inside one 17-float window per edge starting at
// base = min(iu₀, iu₁₅) when every lane's iu − base is in [0,15] (all
// lanes are tested, not the two ends). In: Z11 = iu+2 ≥ 0. Out: Z3 =
// window lane, CX = base, or −1 when the group must gather.
#define WINDOW(out) \
	VPBROADCASTD X11, Z13;       \
	VPERMD       Z11, Z27, Z14;  \
	VPMINSD      Z13, Z14, Z13;  \ // base
	VPSUBD       Z13, Z11, Z3;   \ // window lane = iu − base
	MOVQ         $-1, CX;        \
	VPCMPUD      $6, Z27, Z3, K2; \ // lanes past 15, unsigned
	KORTESTW     K2, K2;         \
	JNZ          out;            \
	VMOVD        X13, CX;        \
out:

// SAMPLE and SAMPLE_COLD fetch a slice's sixteen 2×2 footprints and blend
// them in a group FILL did not cache, as in simd_amd64.s: SAMPLE in the
// slice loop, SAMPLE_COLD with the three rarer fetches out of line behind
// the body. In: Z13 = iv (a global row in [lo−2, hi]), Z11 = iu+2, Z3 and
// CX from WINDOW, Z9 = eu, Z12 = ev, Z10 = rz². Out: Z13 =
// rz²·(t1 + ev·(t2 − t1)). The fetch is the cheapest of four the lanes
// allow:
//   one row, one window        two loads and two permutes per edge
//   two adjacent rows, one window
//                              the same for three rows, row m+1's lanes
//                              merged in under an opmask
//   one row, no window         the two row offsets broadcast, pair gathers
//   otherwise                  the row offsets gathered, pair gathers
// Each gather zeroes its opmask and merges into its destination, so the
// masks are remade and the destinations zeroed every time. A pair gather
// fetches eight lanes' [p00|p01] (or [p10|p11]) as qwords; the two halves'
// even floats are p00 in column order, the odd ones p01. The blend is
// full-width, the same operations per lane in the same order as the Go
// spelling.
#define SAMPLE(tworows, bcast, blend) \
	VPBROADCASTD X13, Z14;                 \
	VPCMPD       $4, Z14, Z13, K2;         \ // lanes off lane 0's row
	KORTESTW     K2, K2;                   \
	JNZ          tworows;                  \
	VMOVD        X13, R13;                 \
	SUBL         simdRowArgs_lo2(AX), R13; \ // table index, identical in every lane
	TESTQ        CX, CX;                   \
	JS           bcast;                    \
	MOVL         (SI)(R13*4), R14;         \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Z3, Z13;     \ // p00
	VPERMPS      4(DI)(R14*4), Z3, Z14;    \ // p01
	MOVL         4(SI)(R13*4), R14;        \
	ADDQ         CX, R14;                  \
	VPERMPS      (DI)(R14*4), Z3, Z15;     \ // p10
	VPERMPS      4(DI)(R14*4), Z3, Z5;     \ // p11
blend: \
	VSUBPS       Z13, Z14, Z14;            \ // p01 − p00
	VMULPS       Z9, Z14, Z14;             \
	VADDPS       Z14, Z13, Z13;            \ // t1
	VSUBPS       Z15, Z5, Z5;              \ // p11 − p10
	VMULPS       Z9, Z5, Z5;               \
	VADDPS       Z5, Z15, Z15;             \ // t2
	VSUBPS       Z13, Z15, Z15;            \ // t2 − t1
	VMULPS       Z12, Z15, Z15;            \
	VADDPS       Z15, Z13, Z13;            \ // t1 + ev·(t2−t1)
	VMULPS       Z10, Z13, Z13             // ·rz²

#define SAMPLE_COLD(tworows, bcast, gather, pairs, blend) \
tworows: \
	TESTQ         CX, CX;                   \
	JS            gather;                   \
	VPERMD        Z13, Z27, Z15;            \
	VPMINSD       Z14, Z15, Z14;            \ // m = min(iv₀, iv₁₅)
	VPSUBD        Z14, Z13, Z1;             \
	VPTESTMD      Z25, Z1, K2;              \
	KORTESTW      K2, K2;                   \
	JNZ           gather;                   \ // a lane on neither row m nor m+1
	VPTESTMD      Z1, Z1, K3;               \ // the lanes on row m+1
	VMOVD         X14, R13;                 \
	SUBL          simdRowArgs_lo2(AX), R13; \
	MOVL          (SI)(R13*4), R14;         \
	ADDQ          CX, R14;                  \
	VPERMPS       (DI)(R14*4), Z3, Z13;     \
	VPERMPS       4(DI)(R14*4), Z3, Z14;    \
	MOVL          4(SI)(R13*4), R14;        \
	ADDQ          CX, R14;                  \
	VPERMPS       (DI)(R14*4), Z3, Z15;     \
	VPERMPS       4(DI)(R14*4), Z3, Z5;     \
	VMOVAPS       Z15, K3, Z13;             \ // p00
	VMOVAPS       Z5, K3, Z14;              \ // p01
	MOVL          8(SI)(R13*4), R14;        \
	ADDQ          CX, R14;                  \
	VPERMPS       (DI)(R14*4), Z3, K3, Z15; \ // p10
	VPERMPS       4(DI)(R14*4), Z3, K3, Z5; \ // p11
	JMP           blend;                    \
bcast: \
	VPBROADCASTD  (SI)(R13*4), Z14;         \ // r0
	VPBROADCASTD  4(SI)(R13*4), Z15;        \ // r1
	JMP           pairs;                    \
gather: \
	VPSUBD        Z22, Z13, Z13;            \ // table index per lane
	KXNORW        K2, K2, K2;               \
	VPXORD        Z14, Z14, Z14;            \
	VPGATHERDD    (SI)(Z13*4), K2, Z14;     \ // r0
	KXNORW        K2, K2, K2;               \
	VPXORD        Z15, Z15, Z15;            \
	VPGATHERDD    4(SI)(Z13*4), K2, Z15;    \ // r1
pairs: \
	VPADDD        Z11, Z14, Z14;            \ // idx00 per lane
	VPADDD        Z11, Z15, Z15;            \ // idx10 per lane
	KXNORW        K2, K2, K2;               \
	VPXORD        Z13, Z13, Z13;            \
	VPGATHERDQ    (DI)(Y14*4), K2, Z13;     \ // lanes 0–7: [p00|p01]
	KXNORW        K2, K2, K2;               \
	VPXORD        Z5, Z5, Z5;               \
	VPGATHERDQ    (DI)(Y15*4), K2, Z5;      \ // lanes 0–7: [p10|p11]
	VEXTRACTI64X4 $1, Z14, Y14;             \
	VEXTRACTI64X4 $1, Z15, Y15;             \
	KXNORW        K2, K2, K2;               \
	VPXORD        Z7, Z7, Z7;               \
	VPGATHERDQ    (DI)(Y14*4), K2, Z7;      \ // lanes 8–15: [p00|p01]
	KXNORW        K2, K2, K2;               \
	VPXORD        Z1, Z1, Z1;               \
	VPGATHERDQ    (DI)(Y15*4), K2, Z1;      \ // lanes 8–15: [p10|p11]
	VMOVAPS       Z13, Z14;                 \
	VPERMT2PS     Z7, Z28, Z13;             \ // p00
	VPERMT2PS     Z7, Z29, Z14;             \ // p01
	VMOVAPS       Z5, Z15;                  \
	VPERMT2PS     Z1, Z28, Z15;             \ // p10
	VPERMT2PS     Z1, Z29, Z5;              \ // p11
	JMP           blend

// FY and SY compute what v moves in one slice of the fast and the guarded
// body. In: the slice's yc as a memory operand. Out: Z12 = ev, Z13 = iv (a
// global row; the guarded body's clamped to [lo−2, hi]). FY clobbers Z14.
#define FY(yc) \
	VBROADCASTSS yc, Z12;      \
	VADDPS       Z12, Z2, Z12; \ // v = ay·i + yc[k]
	VMULPS       Z12, Z8, Z12; \ // y = v·rz
	VCVTTPS2DQ   Z12, Z13;     \ // iv
	VCVTDQ2PS    Z13, Z14;     \
	VSUBPS       Z14, Z12, Z12   // ev = y − float32(iv)

#define SY(yc) \
	VBROADCASTSS yc, Z12;         \
	VADDPS       Z12, Z2, Z12;    \ // v = ay·i + yc[k]
	VMULPS       Z12, Z8, Z12;    \ // y
	VRNDSCALEPS  $1, Z12, Z13;    \ // floor(y)
	VSUBPS       Z13, Z12, Z12;   \ // ev = y − floor(y)
	VCVTTPS2DQ   Z13, Z13;        \ // iv, clamped to [lo−2, hi]: the row
	VPMAXSD      Z22, Z13, Z13;   \ // table's zero-slot entries
	VPMINSD      Z24, Z13, Z13

// FILL blends each detector row the tile reads once, for a group that has
// a window, exactly as simd_amd64.s's FILL does: the first lane's sweep of
// y rejects most groups whose rows would outnumber the slices, then the
// rows rmin … rmax+1 are bounded from the group's iv in the tile's two end
// slices, every lane, and the cache is taken when their count n ≤ h and
// n ≤ 12. In: Z3 and CX from WINDOW, Z9 = eu. Out: rbase, rlim and the
// cache's n rows; BX and R9 at the first slice.
#define FILL(IV, plain, fill) \
	TESTQ         CX, CX;                   \
	JS            plain;                    \
	VMULSS        X30, X8, X1;              \ // lane 0's sweep of y, |Δv|·rz₀
	VUCOMISS      X31, X1;                  \
	JAE           plain;                    \ // ≥ h − 1 rows: n > h
	IV(simdRowArgs_yc(AX));                 \
	VMOVDQA32     Z13, Z5;                  \
	IV(simdRowArgs_yc-4(AX)(R12*1));        \
	VPMINSD       Z13, Z5, Z14;             \
	VPMAXSD       Z13, Z5, Z15;             \
	VEXTRACTI64X4 $1, Z14, Y1;              \
	VPMINSD       Y1, Y14, Y14;             \
	VEXTRACTI64X4 $1, Z15, Y1;              \
	VPMAXSD       Y1, Y15, Y15;             \
	VEXTRACTI128  $1, Y14, X1;              \
	VPMINSD       X1, X14, X14;             \
	VEXTRACTI128  $1, Y15, X1;              \
	VPMAXSD       X1, X15, X15;             \
	VPSHUFD       $0x4E, X14, X1;           \
	VPMINSD       X1, X14, X14;             \
	VPSHUFD       $0x4E, X15, X1;           \
	VPMAXSD       X1, X15, X15;             \
	VPSHUFD       $0xB1, X14, X1;           \
	VPMINSD       X1, X14, X14;             \
	VPSHUFD       $0xB1, X15, X1;           \
	VPMAXSD       X1, X15, X15;             \
	VMOVD         X14, R13;                 \ // rmin
	VMOVD         X15, R14;                 \
	SUBL          R13, R14;                 \ // n − 2
	CMPL          R14, $10;                 \
	JA            plain;                    \ // n > 12, the cache's rows
	LEAQ          8(R14*4), R9;             \
	CMPQ          R9, R12;                  \
	JGT           plain;                    \ // n > h
	MOVL          R13, R9;                  \
	SHLL          $6, R9;                   \
	MOVL          R9, rbase-12(SP);         \
	LEAL          1(R14), R9;               \
	SHLL          $6, R9;                   \
	MOVL          R9, rlim-16(SP);          \
	LEAQ          64(R9), BX;               \ // the fill's end
	XORQ          R9, R9;                   \
	SUBL          simdRowArgs_lo2(AX), R13; \ // row rmin's table index
fill: \
	MOVL          (SI)(R13*4), R14;         \
	ADDQ          CX, R14;                  \
	VPERMPS       (DI)(R14*4), Z3, Z13;     \ // p(r,iu)
	VPERMPS       4(DI)(R14*4), Z3, Z14;    \ // p(r,iu+1)
	VSUBPS        Z13, Z14, Z14;            \
	VMULPS        Z9, Z14, Z14;             \
	VADDPS        Z14, Z13, Z13;            \
	VMOVAPS       Z13, (R8)(R9*1);          \
	INCQ          R13;                      \
	ADDQ          $64, R9;                  \
	CMPQ          R9, BX;                   \
	JL            fill;                     \
	LEAQ          (DX)(R10*4), BX;          \
	XORQ          R9, R9

// CACHED is SAMPLE for a group FILL cached: a slice on one row reads t1
// and t2 from the cache, and the vertical blend, the weight and the lanes
// are SAMPLE's. CACHED_COLD holds the two-row slice out of line: t1 and t2
// taken from rows m, m+1, m+2, row m+1's lanes merged in under an opmask.
// A slice on three or more rows, or on a row the cache does not hold (see
// simd_amd64.s: a guarded lane whose y overflows the conversion), jumps to
// SAMPLE_COLD's gather and runs out the group in the plain slice loop. In:
// as SAMPLE, with rbase and rlim.
#define CACHED(tworows, blend, gather) \
	VPBROADCASTD X13, Z14;          \
	VPCMPD       $4, Z14, Z13, K2;  \ // lanes off lane 0's row
	KORTESTW     K2, K2;            \
	JNZ          tworows;           \
	VMOVD        X13, R13;          \
	SHLL         $6, R13;           \
	SUBL         rbase-12(SP), R13; \
	CMPL         R13, rlim-16(SP);  \
	JAE          gather;            \ // row iv or iv+1 not cached
	VMOVAPS      (R8)(R13*1), Z13;  \ // t1
	VMOVAPS      64(R8)(R13*1), Z15; \ // t2
blend: \
	VSUBPS       Z13, Z15, Z15;     \ // t2 − t1
	VMULPS       Z12, Z15, Z15;     \
	VADDPS       Z15, Z13, Z13;     \ // t1 + ev·(t2−t1)
	VMULPS       Z10, Z13, Z13        // ·rz²

#define CACHED_COLD(tworows, blend, gather) \
tworows: \
	VPERMD       Z13, Z27, Z15;          \
	VPMINSD      Z14, Z15, Z14;          \ // m = min(iv₀, iv₁₅)
	VPSUBD       Z14, Z13, Z1;           \
	VPTESTMD     Z25, Z1, K2;            \
	KORTESTW     K2, K2;                 \
	JNZ          gather;                 \ // a lane on neither row m nor m+1
	VPTESTMD     Z1, Z1, K3;             \ // the lanes on row m+1
	VMOVD        X14, R13;               \
	SHLL         $6, R13;                \
	SUBL         rbase-12(SP), R13;      \
	LEAL         64(R13), R14;           \
	CMPL         R14, rlim-16(SP);       \
	JAE          gather;                 \ // row m+2 not cached
	VMOVAPS      (R8)(R13*1), Z13;       \
	VMOVAPS      64(R8)(R13*1), Z15;     \
	VMOVAPS      Z15, K3, Z13;           \ // t1
	VMOVAPS      128(R8)(R13*1), K3, Z15; \ // t2
	JMP          blend

// NEXT steps to the row in the next slice and loops while slices remain.
#define NEXT(loop) \
	ADDQ simdRowArgs_stride(AX), BX; \
	ADDQ $4, R9;                     \
	CMPQ R9, R12;                    \
	JL   loop

// func fusedTile512(a *simdRowArgs)
// NOSPLIT: the frame holds 16 bytes; the row cache is the caller's.
TEXT ·fusedTile512(SB), NOSPLIT, $16-8
	MOVQ a+0(FP), AX
	MOVQ simdRowArgs_data(AX), DI
	SUBQ $8, DI                    // iu+2 indexes the samples
	MOVQ simdRowArgs_rows(AX), SI  // int32 table: entry iv−(lo−2) is row iv
	MOVQ simdRowArgs_out(AX), DX
	MOVQ simdRowArgs_cache(AX), R8
	ADDQ $63, R8
	ANDQ $-64, R8                  // the row cache, 64-byte aligned

	// Broadcast the column coefficients, row constants and clamp bounds.
	VBROADCASTSS simdRowArgs_ax(AX), Z16
	VBROADCASTSS simdRowArgs_ay(AX), Z17
	VBROADCASTSS simdRowArgs_az(AX), Z18
	VBROADCASTSS simdRowArgs_xc(AX), Z19
	VBROADCASTSS simdRowArgs_zc(AX), Z20
	VPBROADCASTD simdRowArgs_lo2(AX), Z22
	VPBROADCASTD simdRowArgs_nu(AX), Z23
	VPBROADCASTD simdRowArgs_hi(AX), Z24
	MOVL         $0x41800000, R13      // float32(16): the column step
	VPBROADCASTD R13, Z21
	MOVL         $0x3f800000, R13      // float32(1)
	VPBROADCASTD R13, Z6
	MOVL         $-2, R13
	VPBROADCASTD R13, Z25
	MOVL         $15, R13
	VPBROADCASTD R13, Z27
	VMOVDQU32    lane015<>(SB), Z26
	VPADDD       Z26, Z26, Z28         // the even floats of two vectors
	MOVL         $1, R13
	VPBROADCASTD R13, Z29
	VPADDD       Z28, Z29, Z29         // the odd ones

	// The fast groups on the 16-aligned group grid, and the end of yc.
	MOVQ simdRowArgs_f0(AX), R13
	ADDQ $15, R13
	ANDQ $-16, R13
	MOVQ R13, fs-8(SP)
	MOVQ simdRowArgs_f1(AX), R11
	ANDQ $-16, R11
	MOVQ simdRowArgs_h(AX), R12
	SHLQ $2, R12

	// The tile's sweep of v, |yc[h−1] − yc[0]|, and h − 1, which FILL
	// tests a group's first lane against before it bounds the rows.
	VMOVSS     simdRowArgs_yc(AX), X1
	VMOVSS     simdRowArgs_yc-4(AX)(R12*1), X2
	VSUBSS     X1, X2, X3
	VSUBSS     X2, X1, X1
	VMAXSS     X1, X3, X30
	MOVQ       simdRowArgs_h(AX), R13
	DECQ       R13
	VCVTSI2SSQ R13, X31, X31

	// The first group holds c0; its columns as floats, and its w.
	MOVQ         simdRowArgs_c0(AX), R10
	ANDQ         $-16, R10
	VPBROADCASTD R10, Z0
	VPADDD       Z26, Z0, Z0
	VCVTDQ2PS    Z0, Z0
	VMULPS       Z18, Z0, Z4
	VADDPS       Z20, Z4, Z4

group:
	CMPQ R10, simdRowArgs_c1(AX)
	JGE  done
	CMPQ R10, fs-8(SP)
	JL   slow
	CMPQ R10, R11
	JGE  slow

fast:
	COORDS
	// ---------------- fast body: 16 interior columns ------------------
	// Every group in [fs, fe) sits wholly inside the interior [f0,f1)
	// and is automatically fully active (f0≥c0, f1≤c1).
	// Integer part by truncation (== floor: x ≥ 0).
	VCVTTPS2DQ Z9, Z11             // iu
	VCVTDQ2PS  Z11, Z13
	VSUBPS     Z13, Z9, Z9         // eu = x − float32(iu)
	VPSUBD     Z25, Z11, Z11       // iu+2
	WINDOW(fwin)
	FILL(FY, fplain, ffill)

fcslice:
	FY(simdRowArgs_yc(AX)(R9*1))
	CACHED(fcrows2, fcblend, fgather)
	VADDPS  (BX), Z13, Z13
	VMOVUPS Z13, (BX)
	NEXT(fcslice)
	JMP     fnext

fplain:
	LEAQ (DX)(R10*4), BX
	XORQ R9, R9

fslice:
	FY(simdRowArgs_yc(AX)(R9*1))
	SAMPLE(frows2, fbcast, fblend)

	// A plain unmasked accumulate: the group is fully active.
	VADDPS  (BX), Z13, Z13
	VMOVUPS Z13, (BX)
	NEXT(fslice)

fnext:
	ADDQ $16, R10
	CMPQ R10, R11
	JL   fast
	JMP  group

	CACHED_COLD(fcrows2, fcblend, fgather)
	SAMPLE_COLD(frows2, fbcast, fgather, fpairs, fblend)

slow:
	// ---------------- guarded body: texture-border group --------------
	COORDS
	// Live lanes: lane j live iff c0 ≤ gb+j < c1:
	// lane015 > c0−gb−1, and c1−gb > lane015.
	MOVQ         simdRowArgs_c0(AX), R13
	SUBQ         R10, R13
	DECQ         R13
	VPBROADCASTD R13, Z1
	VPCMPGTD     Z1, Z26, K1
	MOVQ         simdRowArgs_c1(AX), R13
	SUBQ         R10, R13
	VPBROADCASTD R13, Z1
	VPCMPGTD     Z26, Z1, K1, K1

	// Floor instead of truncation — border x, y may be negative — then iu
	// clamped to the apron, [−2, nu], and biased like the fast body's.
	VRNDSCALEPS $1, Z9, Z11
	VSUBPS      Z11, Z9, Z9        // eu = x − floor(x)
	VCVTTPS2DQ  Z11, Z11           // iu
	VPMAXSD     Z25, Z11, Z11
	VPMINSD     Z23, Z11, Z11
	VPSUBD      Z25, Z11, Z11      // iu+2
	WINDOW(swin)
	FILL(SY, splain, sfill)

scslice:
	SY(simdRowArgs_yc(AX)(R9*1))
	CACHED(scrows2, scblend, sgather)
	VMOVUPS.Z (BX), K1, Z14
	VADDPS    Z13, Z14, Z14
	VMOVUPS   Z14, K1, (BX)
	NEXT(scslice)
	JMP       snext

splain:
	LEAQ (DX)(R10*4), BX
	XORQ R9, R9

sslice:
	SY(simdRowArgs_yc(AX)(R9*1))
	SAMPLE(srows2, sbcast, sblend)

	// row[gb..gb+16) += the sample in the live lanes: a masked load, add
	// and store.
	VMOVUPS.Z (BX), K1, Z14
	VADDPS    Z13, Z14, Z14
	VMOVUPS   Z14, K1, (BX)
	NEXT(sslice)

snext:
	ADDQ $16, R10
	JMP  group

	CACHED_COLD(scrows2, scblend, sgather)
	SAMPLE_COLD(srows2, sbcast, sgather, spairs, sblend)

done:
	VZEROUPPER
	RET
