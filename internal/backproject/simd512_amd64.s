//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// AVX-512 implementation of the SIMD coordinate contract (see simd.go):
// simd_amd64.s's arithmetic at sixteen columns per vector, with the running
// sums of a block of projections held in registers.
//
// One call covers one volume row in the h slices of a k-tile,
// 1 ≤ h ≤ zBlock (16), for the n ≤ projBlock (16) entries of a block of
// projections whose u and w do not depend on z. The loop nest is
// group → entry → slice: per 16-column group the tile's h slice rows are
// loaded once into Z16…Z16+h−1, every entry whose covered span [c0,c1)
// meets the group adds its contributions into them in ascending s, and the
// group is stored once. A voxel receives exactly the float32 additions, in
// exactly the order, that one call per projection would make: the register
// carries the running sum from one projection to the next where the volume
// did. The load and store are masked to the hull of the entries' covered
// spans [C0,C1): a column inside it that no entry covers is stored back
// with the bits it was loaded with, and no lane outside it is touched —
// not even past the end of the volume, where a masked lane faults on
// nothing.
//
// Per (group, entry) the head is that of a call of its own: the group is
// skipped when it lies outside the entry's [c0,c1) (it would add nothing),
// runs the unguarded fast body when it lies wholly inside the entry's
// interior [f0,f1), and the guarded body otherwise. The z-invariant work
// (u and ay·i at the group's columns, x, iu, eu, rz², the contiguous-window
// test) is done once, and the slices recompute only what v moves. The
// divides rz = 1/w of all the entries are done first, when the group is
// loaded, out of the way of each entry's chain from rz to its first
// sample; each entry reads its rz back from the scratch behind the row
// cache. A group with a window whose tile reads no more detector rows than
// it has slices (and than the cache's 12) blends each of those rows
// horizontally once (FILL) into the row cache, and its slices do only the
// vertical blend (CACHED); every other group fetches its four samples per
// slice (SAMPLE). A cached slice that the cache cannot serve hands off to
// SAMPLE's gather and finishes the entry in the plain slices. The guarded
// body differs in floor instead of truncation, the footprint's origin
// clamped into the store's zero apron (device.Layout: the texture border is
// data), and the accumulate merge-masked by K1 to the entry's covered
// lanes. Both bodies read the same coordinates and fetch through the same
// macros, so a column computes the same value whichever body its group
// lands in, cached or not, and the same value as in the 8-lane kernel: no
// lane ever mixes with another.
//
// A register cannot be indexed, so the slice loop is unrolled: slice t of
// an entry is the t-th copy of the body, which accumulates into Z16+t and
// reads yc[t], and leaves for the next entry after copy h−1. Each copy has
// its own out-of-line fetches (CACHED_COLD, SAMPLE_COLD), placed after the
// function's RET so that the copies' hot paths stay contiguous.
//
// What the width changes against simd_amd64.s:
//   - the group grid is 16-aligned, so a group based at gb is fast for an
//     entry when f0 ≤ gb and gb+16 ≤ f1;
//   - the lane tests (one row, two adjacent rows, the window, the live
//     lanes) compare into opmask registers and branch on KORTESTW;
//   - a window is 17 floats, two 16-float loads and a VPERMPS per footprint
//     edge, up to 15 floats past a row's right apron (device.WindowFloats);
//   - the two-row fetch and its cached twin merge row m+1's lanes in under
//     an opmask instead of a variable blend;
//   - the gather fallback takes two 8-lane pair gathers per footprint edge
//     (VPGATHERDQ: p00 and p01, or p10 and p11, are adjacent floats) and
//     de-interleaves the even and odd floats with VPERMT2PS;
//   - the fast body takes a fractional part in one VREDUCEPS (x − floor(x),
//     exact, for the finite x ≥ 0 it sees), and FILL bounds the rows from
//     the first and last lanes of the end slices (see FILL);
//   - a cached row is 64 bytes, so 12 rows do not fit the frame of a NOSPLIT
//     function (its limit is 792 bytes): the cache is a per-worker buffer
//     the argument block points to (rowCache), 64-byte aligned here, and
//     the group's rz per entry follows it.
//
// Register plan. The accumulators take Z16–Z31, so every constant is a
// memory operand: the entry's ax, ay, az, xc, zc and yc[t] and the launch's
// lo−2, hi and nu as embedded broadcasts (.BCST), the others from the
// read-only data below, loaded into scratch registers where an instruction
// needs its index or dividend in one.
//   Z0        = the group's columns float32(gb+j), stepped by 16.0 per group
//               (an exact add while the columns stay below 2²⁴)
//   Z16+t     = slice t's running sums, the group's row in slice t
//   per entry: Z2 = ay·i, Z8 = rz, Z9 = eu, Z10 = rz², Z11 = iu+2,
//              Z3 = window lane, K1 = covered lanes (guarded body)
//   Z1, Z4..Z7, Z12..Z15, K2, K3 = scratch (Z5 holds the first slice's iv
//              while FILL bounds the rows; Z4 and Z6 w and 1.0 while the
//              group's divides run, and the pair gathers' de-interleave)
//   K4        = the lanes of the group inside [C0,C1), loaded and stored
//   DX = args   AX = the entry   DI = its data − 2 floats (iu+2 indexes it)
//   SI = rows   R8 = the row cache, 64-aligned   R10 = group base
//   R11 = the end of the entries   R12 = 4·h   BX = the row being loaded
//   or stored; in FILL, R9 = the cache offset being written and BX its end;
//   in the fast body's slices R9 = the cache − rbase
//   CX = window base or −1   R13, R14 = scratch (R13 = gb+16 in the head)
//
// Frame (offsets from the pseudo-SP):
//   hm1-4(SP)    4B   float32(h − 1)
//   rbase-12(SP) 4B   64·rmin: 64·iv − rbase is row iv's cache offset
//   rlim-16(SP)  4B   64·(n−1): no t1 is read at or past it
//
// The soundness arguments are fusedTileAVX2's, lane for lane: every lane
// of a fast group is resident in every slice of the tile; the guarded
// body's clamp puts every lane's footprint, dead or live, inside the store;
// FILL reads only rows some lane reads in an end slice; a slice reads the
// cache only after an unsigned compare has put its rows among the n that
// FILL wrote, or, on one row in the fast body, where monotonicity puts them
// there (CACHED_FAST). Dead lanes may compute garbage — the accumulate's
// opmask suppresses them, and the masked load and store fault on none of
// their addresses.

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

// evens and odds: the pair gathers' de-interleave, the even and the odd
// floats of two vectors.
DATA evens<>+0(SB)/4, $0
DATA evens<>+4(SB)/4, $2
DATA evens<>+8(SB)/4, $4
DATA evens<>+12(SB)/4, $6
DATA evens<>+16(SB)/4, $8
DATA evens<>+20(SB)/4, $10
DATA evens<>+24(SB)/4, $12
DATA evens<>+28(SB)/4, $14
DATA evens<>+32(SB)/4, $16
DATA evens<>+36(SB)/4, $18
DATA evens<>+40(SB)/4, $20
DATA evens<>+44(SB)/4, $22
DATA evens<>+48(SB)/4, $24
DATA evens<>+52(SB)/4, $26
DATA evens<>+56(SB)/4, $28
DATA evens<>+60(SB)/4, $30
GLOBL evens<>(SB), RODATA|NOPTR, $64

DATA odds<>+0(SB)/4, $1
DATA odds<>+4(SB)/4, $3
DATA odds<>+8(SB)/4, $5
DATA odds<>+12(SB)/4, $7
DATA odds<>+16(SB)/4, $9
DATA odds<>+20(SB)/4, $11
DATA odds<>+24(SB)/4, $13
DATA odds<>+28(SB)/4, $15
DATA odds<>+32(SB)/4, $17
DATA odds<>+36(SB)/4, $19
DATA odds<>+40(SB)/4, $21
DATA odds<>+44(SB)/4, $23
DATA odds<>+48(SB)/4, $25
DATA odds<>+52(SB)/4, $27
DATA odds<>+56(SB)/4, $29
DATA odds<>+60(SB)/4, $31
GLOBL odds<>(SB), RODATA|NOPTR, $64

DATA one32<>+0(SB)/4, $0x3f800000 // float32(1): the dividend of rz = 1/w
GLOBL one32<>(SB), RODATA|NOPTR, $4

DATA sixteen32<>+0(SB)/4, $0x41800000 // float32(16): the column step
GLOBL sixteen32<>(SB), RODATA|NOPTR, $4

// −2: the guarded body's lower clamp, the bias of iu, and — as the bit
// mask ^1 — the test that a lane's row is m's or the next.
DATA minus2<>+0(SB)/4, $-2
GLOBL minus2<>(SB), RODATA|NOPTR, $4

DATA fifteen<>+0(SB)/4, $15 // the last lane, and the window's bound
GLOBL fifteen<>(SB), RODATA|NOPTR, $4

// COORDS evaluates the contract's coordinates at the group's sixteen
// columns Z0 for the entry — op·i + oc, a VMULPS then a VADDPS, never
// fused — and what follows from them whichever body runs the group, with
// the entry's rz read back from the scratch the group's divides wrote (at
// 64 bytes per entry, half the entry's offset in the argument block). Out:
// Z2 = ay·i, Z8 = rz, Z9 = x, Z10 = rz².
#define COORDS \
	MOVQ         AX, R14;                 \
	SUBQ         DX, R14;                 \
	SHRQ         $1, R14;                 \
	VMOVAPS      const_cacheRows*64-tileArgs_ent/2(R8)(R14*1), Z8; \ // rz
	VMULPS.BCST  projArgs_ax(AX), Z0, Z9; \
	VADDPS.BCST  projArgs_xc(AX), Z9, Z9; \ // u
	VMULPS.BCST  projArgs_ay(AX), Z0, Z2; \ // ay·i
	VMULPS       Z9, Z8, Z9;              \ // x = u·rz
	VMULPS       Z8, Z8, Z10                // rz²

// WINDOW is the contiguous-window test, once per group and entry: the
// sixteen footprints sit inside one 17-float window per edge starting at
// base = min(iu₀, iu₁₅) when every lane's iu − base is in [0,15] (all
// lanes are tested, not the two ends). In: Z11 = iu+2 ≥ 0. Out: Z3 =
// window lane, CX = base, or −1 when the group must gather.
#define WINDOW(out) \
	VPBROADCASTD X11, Z13;                   \
	VPBROADCASTD fifteen<>(SB), Z14;         \
	VPERMD       Z11, Z14, Z14;              \
	VPMINSD      Z13, Z14, Z13;              \ // base
	VPSUBD       Z13, Z11, Z3;               \ // window lane = iu − base
	MOVQ         $-1, CX;                    \
	VPCMPUD.BCST $6, fifteen<>(SB), Z3, K2;  \ // lanes past 15, unsigned
	KORTESTW     K2, K2;                     \
	JNZ          out;                        \
	VMOVD        X13, CX;                    \
out:

// SAMPLE and SAMPLE_COLD fetch a slice's sixteen 2×2 footprints and blend
// them in a group FILL did not cache, as in simd_amd64.s: SAMPLE in the
// slice, SAMPLE_COLD with the three rarer fetches out of line. In: Z13 =
// iv (a global row in [lo−2, hi]), Z11 = iu+2, Z3 and CX from WINDOW, Z9 =
// eu, Z12 = ev, Z10 = rz². Out: Z13 = rz²·(t1 + ev·(t2 − t1)). The fetch
// is the cheapest of four the lanes allow:
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
	SUBL         tileArgs_lo2(DX), R13;    \ // table index, identical in every lane
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
	VPBROADCASTD  fifteen<>(SB), Z15;       \
	VPERMD        Z13, Z15, Z15;            \
	VPMINSD       Z14, Z15, Z14;            \ // m = min(iv₀, iv₁₅)
	VPSUBD        Z14, Z13, Z1;             \
	VPTESTMD.BCST minus2<>(SB), Z1, K2;     \
	KORTESTW      K2, K2;                   \
	JNZ           gather;                   \ // a lane on neither row m nor m+1
	VPTESTMD      Z1, Z1, K3;               \ // the lanes on row m+1
	VMOVD         X14, R13;                 \
	SUBL          tileArgs_lo2(DX), R13;    \
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
	VPSUBD.BCST   tileArgs_lo2(DX), Z13, Z13; \ // table index per lane
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
	VMOVDQU32     evens<>(SB), Z4;          \
	VMOVDQU32     odds<>(SB), Z6;           \
	VMOVAPS       Z13, Z14;                 \
	VPERMT2PS     Z7, Z4, Z13;              \ // p00
	VPERMT2PS     Z7, Z6, Z14;              \ // p01
	VMOVAPS       Z5, Z15;                  \
	VPERMT2PS     Z1, Z4, Z15;              \ // p10
	VPERMT2PS     Z1, Z6, Z5;               \ // p11
	JMP           blend

// FY and SY compute what v moves in one slice of the fast and the guarded
// body. In: the slice's yc as a memory operand. Out: Z12 = ev, Z13 = iv (a
// global row; the guarded body's clamped to [lo−2, hi]). SY keeps the
// contract's y − floor(y), with the floor rounded out of y first, for the
// infinite or NaN y a guarded lane may hold.
#define FY(yc) \
	VADDPS.BCST  yc, Z2, Z12;  \ // v = ay·i + yc[k]
	VMULPS       Z12, Z8, Z12; \ // y = v·rz
	VCVTTPS2DQ   Z12, Z13;     \ // iv
	VREDUCEPS    $9, Z12, Z12    // ev = y − floor(y)

#define SY(yc) \
	VADDPS.BCST  yc, Z2, Z12;                    \ // v = ay·i + yc[k]
	VMULPS       Z12, Z8, Z12;                   \ // y
	VRNDSCALEPS  $1, Z12, Z13;                   \ // floor(y)
	VSUBPS       Z13, Z12, Z12;                  \ // ev = y − floor(y)
	VCVTTPS2DQ   Z13, Z13;                       \ // iv, clamped to [lo−2, hi]: the row
	VPMAXSD.BCST tileArgs_lo2(DX), Z13, Z13;     \ // table's zero-slot entries
	VPMINSD.BCST tileArgs_hi(DX), Z13, Z13

// FIV and SIV are FY's and SY's iv alone, for FILL's row bounds. Out: Z13.
#define FIV(yc) \
	VADDPS.BCST  yc, Z2, Z12;  \
	VMULPS       Z12, Z8, Z12; \
	VCVTTPS2DQ   Z12, Z13

#define SIV(yc) \
	VADDPS.BCST      yc, Z2, Z12;                \
	VMULPS           Z12, Z8, Z12;               \
	VCVTPS2DQ.RD_SAE Z12, Z13;                   \ // floor(y), converted
	VPMAXSD.BCST     tileArgs_lo2(DX), Z13, Z13; \
	VPMINSD.BCST     tileArgs_hi(DX), Z13, Z13

// FILL blends each detector row the entry's tile reads once, for a group
// that has a window, as simd_amd64.s's FILL does: the first lane's sweep of
// y rejects most groups whose rows would outnumber the slices, then the
// rows rmin … rmax+1 are bounded from the group's iv in the tile's two end
// slices, and the cache is taken when their count n ≤ h and n ≤ 12. The
// bounds are taken from the first and the last lane alone: every row FILL
// reads is then still one some lane reads in an end slice, and a middle
// lane whose row float32 noise puts outside them fails its slice's cache
// test and hands off — the bytes cannot tell. In: Z3 and CX from WINDOW,
// Z9 = eu; IV is FIV or SIV. Out: rbase, rlim and the cache's n rows.
#define FILL(IV, plain, fill) \
	TESTQ         CX, CX;                     \
	JS            plain;                      \
	VMOVSS        projArgs_yc(AX), X1;        \
	VMOVSS        projArgs_yc-4(AX)(R12*1), X5; \
	VSUBSS        X1, X5, X7;                 \
	VSUBSS        X5, X1, X1;                 \
	VMAXSS        X1, X7, X1;                 \ // the tile's sweep of v, |yc[h−1] − yc[0]|
	VMULSS        X1, X8, X1;                 \ // lane 0's sweep of y, |Δv|·rz₀
	VUCOMISS      hm1-4(SP), X1;              \
	JAE           plain;                      \ // ≥ h − 1 rows: n > h
	IV(projArgs_yc(AX));                      \
	VMOVDQA32     Z13, Z5;                    \
	IV(projArgs_yc-4(AX)(R12*1));             \
	VPMINSD       Z13, Z5, Z14;               \
	VPMAXSD       Z13, Z5, Z15;               \
	VALIGND       $15, Z14, Z14, Z1;          \ // lane 15 to lane 0
	VPMINSD       X1, X14, X14;               \
	VALIGND       $15, Z15, Z15, Z1;          \
	VPMAXSD       X1, X15, X15;               \
	VMOVD         X14, R13;                   \ // rmin
	VMOVD         X15, R14;                   \
	SUBL          R13, R14;                   \ // n − 2
	CMPL          R14, $10;                   \
	JA            plain;                      \ // n > 12, the cache's rows
	LEAQ          8(R14*4), R9;               \
	CMPQ          R9, R12;                    \
	JGT           plain;                      \ // n > h
	MOVL          R13, R9;                    \
	SHLL          $6, R9;                     \
	MOVL          R9, rbase-12(SP);           \
	LEAL          1(R14), R9;                 \
	SHLL          $6, R9;                     \
	MOVL          R9, rlim-16(SP);            \
	LEAQ          64(R9), BX;                 \ // the fill's end
	XORQ          R9, R9;                     \
	SUBL          tileArgs_lo2(DX), R13;      \ // row rmin's table index
fill: \
	MOVL          (SI)(R13*4), R14;           \
	ADDQ          CX, R14;                    \
	VPERMPS       (DI)(R14*4), Z3, Z13;       \ // p(r,iu)
	VPERMPS       4(DI)(R14*4), Z3, Z14;      \ // p(r,iu+1)
	VSUBPS        Z13, Z14, Z14;              \
	VMULPS        Z9, Z14, Z14;               \
	VADDPS        Z14, Z13, Z13;              \
	VMOVAPS       Z13, (R8)(R9*1);            \
	INCQ          R13;                        \
	ADDQ          $64, R9;                    \
	CMPQ          R9, BX;                     \
	JL            fill

// CACHED is SAMPLE for a group FILL cached: a slice on one row reads t1
// and t2 from the cache, and the vertical blend, the weight and the lanes
// are SAMPLE's. CACHED_COLD holds the two-row slice out of line: t1 and t2
// taken from rows m, m+1, m+2, row m+1's lanes merged in under an opmask.
// A slice on three or more rows, or on a row the cache does not hold (see
// simd_amd64.s: a guarded lane whose y overflows the conversion), jumps to
// its plain twin's gather and runs out the entry in the plain slices. In:
// as SAMPLE, with rbase and rlim.
#define CACHED(tworows, blend, gather) \
	VPBROADCASTD X13, Z14;           \
	VPCMPD       $4, Z14, Z13, K2;   \ // lanes off lane 0's row
	KORTESTW     K2, K2;             \
	JNZ          tworows;            \
	VMOVD        X13, R13;           \
	SHLL         $6, R13;            \
	SUBL         rbase-12(SP), R13;  \
	CMPL         R13, rlim-16(SP);   \
	JAE          gather;             \ // row iv or iv+1 not cached
	VMOVAPS      (R8)(R13*1), Z13;   \ // t1
	VMOVAPS      64(R8)(R13*1), Z15; \ // t2
blend: \
	VSUBPS       Z13, Z15, Z15;      \ // t2 − t1
	VMULPS       Z12, Z15, Z15;      \
	VADDPS       Z15, Z13, Z13;      \ // t1 + ev·(t2−t1)
	VMULPS       Z10, Z13, Z13         // ·rz²

// CACHED_FAST is CACHED in the fast body, where the one-row slice needs no
// bound: a lane's row moves monotonically with the slice (y ≥ 0 is finite,
// and truncation is floor), so lane 0's row in any slice lies between its
// rows in the tile's end slices, which FILL's bounds hold, and a slice on
// one row reads two of the n cached rows. R9 = the cache − rbase.
#define CACHED_FAST(tworows, blend) \
	VPBROADCASTD X13, Z14;           \
	VPCMPD       $4, Z14, Z13, K2;   \ // lanes off lane 0's row
	KORTESTW     K2, K2;             \
	JNZ          tworows;            \
	VMOVD        X13, R13;           \
	SHLL         $6, R13;            \
	VMOVAPS      (R9)(R13*1), Z13;   \ // t1
	VMOVAPS      64(R9)(R13*1), Z15; \ // t2
blend: \
	VSUBPS       Z13, Z15, Z15;      \ // t2 − t1
	VMULPS       Z12, Z15, Z15;      \
	VADDPS       Z15, Z13, Z13;      \ // t1 + ev·(t2−t1)
	VMULPS       Z10, Z13, Z13         // ·rz²

#define CACHED_COLD(tworows, blend, gather) \
tworows: \
	VPBROADCASTD  fifteen<>(SB), Z15;        \
	VPERMD        Z13, Z15, Z15;             \
	VPMINSD       Z14, Z15, Z14;             \ // m = min(iv₀, iv₁₅)
	VPSUBD        Z14, Z13, Z1;              \
	VPTESTMD.BCST minus2<>(SB), Z1, K2;      \
	KORTESTW      K2, K2;                    \
	JNZ           gather;                    \ // a lane on neither row m nor m+1
	VPTESTMD      Z1, Z1, K3;                \ // the lanes on row m+1
	VMOVD         X14, R13;                  \
	SHLL          $6, R13;                   \
	SUBL          rbase-12(SP), R13;         \
	LEAL          64(R13), R14;              \
	CMPL          R14, rlim-16(SP);          \
	JAE           gather;                    \ // row m+2 not cached
	VMOVAPS       (R8)(R13*1), Z13;          \
	VMOVAPS       64(R8)(R13*1), Z15;        \
	VMOVAPS       Z15, K3, Z13;              \ // t1
	VMOVAPS       128(R8)(R13*1), K3, Z15;   \ // t2
	JMP           blend

// The four kinds of slice, each computing slice t's samples into Z13:
// FAST_C and FAST_P the fast body's, cached and plain, GUARD_C and GUARD_P
// the guarded body's. Each copy of one is followed by the add into its
// accumulator — the fast one with the sample as its first operand, the
// guarded one with the running sum, merge-masked by K1 to the entry's
// covered lanes, as a call per projection adds them — and by LAST, which
// leaves for the next entry after the tile's last slice, 4·h = end.
#define FAST_C(yc, tworows, blend) \
	FY(yc);                          \
	CACHED_FAST(tworows, blend)

#define FAST_P(yc, tworows, bcast, blend) \
	FY(yc);                          \
	SAMPLE(tworows, bcast, blend)

#define GUARD_C(yc, tworows, blend, gather) \
	SY(yc);                          \
	CACHED(tworows, blend, gather)

#define GUARD_P(yc, tworows, bcast, blend) \
	SY(yc);                          \
	SAMPLE(tworows, bcast, blend)

#define LAST(end) \
	CMPQ R12, end; \
	JEQ  pnext

// NEXTROW steps BX from the group's row in one slice to the next while
// slices remain, between the accumulators' masked loads (and stores):
// out is where the last slice leaves to.
#define NEXTROW(end, out) \
	CMPQ R12, end;     \
	JEQ  out;          \
	ADDQ tileArgs_stride(DX), BX

// func fusedTile512(a *tileArgs)
// NOSPLIT: the frame holds 16 bytes; the row cache is the caller's.
TEXT ·fusedTile512(SB), NOSPLIT, $16-8
	MOVQ a+0(FP), DX
	MOVQ tileArgs_rows(DX), SI  // int32 table: entry iv−(lo−2) is row iv
	MOVQ tileArgs_cache(DX), R8
	ADDQ $63, R8
	ANDQ $-64, R8               // the row cache, 64-byte aligned

	// 4·h, the end of yc, and h − 1, which FILL tests a group's first
	// lane against before it bounds the rows.
	MOVQ       tileArgs_h(DX), R12
	LEAQ       -1(R12), R13
	VCVTSI2SSQ R13, X1, X1
	VMOVSS     X1, hm1-4(SP)
	SHLQ       $2, R12

	// The end of the entries.
	MOVQ  tileArgs_n(DX), R11
	IMULQ $projArgs__size, R11
	LEAQ  tileArgs_ent(DX)(R11*1), R11

	// The first group holds C0; its columns as floats.
	MOVQ         tileArgs_c0(DX), R10
	ANDQ         $-16, R10
	VPBROADCASTD R10, Z0
	VPADDD       lane015<>(SB), Z0, Z0
	VCVTDQ2PS    Z0, Z0

group:
	CMPQ R10, tileArgs_c1(DX)
	JGE  done

	// The lanes inside the hull, C0 ≤ gb+j < C1:
	// c0−gb−1 < lane015, and c1−gb > lane015.
	MOVQ         tileArgs_c0(DX), R13
	SUBQ         R10, R13
	DECQ         R13
	VPBROADCASTD R13, Z1
	VPCMPD       $1, lane015<>(SB), Z1, K4
	MOVQ         tileArgs_c1(DX), R13
	SUBQ         R10, R13
	VPBROADCASTD R13, Z1
	VPCMPD       $6, lane015<>(SB), Z1, K4, K4

	// The group's row in each slice into its accumulator.
	MOVQ tileArgs_out(DX), BX
	LEAQ (BX)(R10*4), BX
	VMOVUPS.Z (BX), K4, Z16
	NEXTROW($4, loaded)
	VMOVUPS.Z (BX), K4, Z17
	NEXTROW($8, loaded)
	VMOVUPS.Z (BX), K4, Z18
	NEXTROW($12, loaded)
	VMOVUPS.Z (BX), K4, Z19
	NEXTROW($16, loaded)
	VMOVUPS.Z (BX), K4, Z20
	NEXTROW($20, loaded)
	VMOVUPS.Z (BX), K4, Z21
	NEXTROW($24, loaded)
	VMOVUPS.Z (BX), K4, Z22
	NEXTROW($28, loaded)
	VMOVUPS.Z (BX), K4, Z23
	NEXTROW($32, loaded)
	VMOVUPS.Z (BX), K4, Z24
	NEXTROW($36, loaded)
	VMOVUPS.Z (BX), K4, Z25
	NEXTROW($40, loaded)
	VMOVUPS.Z (BX), K4, Z26
	NEXTROW($44, loaded)
	VMOVUPS.Z (BX), K4, Z27
	NEXTROW($48, loaded)
	VMOVUPS.Z (BX), K4, Z28
	NEXTROW($52, loaded)
	VMOVUPS.Z (BX), K4, Z29
	NEXTROW($56, loaded)
	VMOVUPS.Z (BX), K4, Z30
	NEXTROW($60, loaded)
	VMOVUPS.Z (BX), K4, Z31
	NEXTROW($64, loaded)

loaded:
	// Every entry's rz = 1/w at the group's columns, the exact divide.
	LEAQ         tileArgs_ent(DX), AX
	LEAQ         const_cacheRows*64(R8), R14
	VBROADCASTSS one32<>(SB), Z6
rz:
	VMULPS.BCST projArgs_az(AX), Z0, Z4
	VADDPS.BCST projArgs_zc(AX), Z4, Z4  // w
	VDIVPS      Z4, Z6, Z4
	VMOVAPS     Z4, (R14)
	ADDQ        $64, R14
	ADDQ        $projArgs__size, AX
	CMPQ        AX, R11
	JL          rz
	LEAQ        tileArgs_ent(DX), AX

entry:
	// Skip the entry when the group misses its covered span [c0,c1).
	LEAQ 16(R10), R13
	CMPQ R13, projArgs_c0(AX)
	JLE  pnext
	CMPQ R10, projArgs_c1(AX)
	JGE  pnext
	MOVQ projArgs_data(AX), DI
	SUBQ $8, DI                 // iu+2 indexes the samples
	COORDS
	CMPQ R10, projArgs_f0(AX)
	JL   slow
	CMPQ R13, projArgs_f1(AX)
	JG   slow

	// ---------------- fast body: 16 interior columns ------------------
	// The group sits wholly inside the entry's interior [f0,f1) and is
	// fully covered (f0≥c0, f1≤c1). Integer part by truncation (== floor:
	// x ≥ 0).
	VCVTTPS2DQ  Z9, Z11                   // iu
	VREDUCEPS   $9, Z9, Z9                // eu = x − floor(x)
	VPSUBD.BCST minus2<>(SB), Z11, Z11    // iu+2
	WINDOW(fwin)
	FILL(FIV, fplain, ffill)
	MOVLQSX     rbase-12(SP), R9
	NEGQ        R9
	ADDQ        R8, R9                    // the cache − rbase
	FAST_C(projArgs_yc+0(AX), fc0r2, fc0bl)
	VADDPS Z16, Z13, Z16
	LAST($4)
	FAST_C(projArgs_yc+4(AX), fc1r2, fc1bl)
	VADDPS Z17, Z13, Z17
	LAST($8)
	FAST_C(projArgs_yc+8(AX), fc2r2, fc2bl)
	VADDPS Z18, Z13, Z18
	LAST($12)
	FAST_C(projArgs_yc+12(AX), fc3r2, fc3bl)
	VADDPS Z19, Z13, Z19
	LAST($16)
	FAST_C(projArgs_yc+16(AX), fc4r2, fc4bl)
	VADDPS Z20, Z13, Z20
	LAST($20)
	FAST_C(projArgs_yc+20(AX), fc5r2, fc5bl)
	VADDPS Z21, Z13, Z21
	LAST($24)
	FAST_C(projArgs_yc+24(AX), fc6r2, fc6bl)
	VADDPS Z22, Z13, Z22
	LAST($28)
	FAST_C(projArgs_yc+28(AX), fc7r2, fc7bl)
	VADDPS Z23, Z13, Z23
	LAST($32)
	FAST_C(projArgs_yc+32(AX), fc8r2, fc8bl)
	VADDPS Z24, Z13, Z24
	LAST($36)
	FAST_C(projArgs_yc+36(AX), fc9r2, fc9bl)
	VADDPS Z25, Z13, Z25
	LAST($40)
	FAST_C(projArgs_yc+40(AX), fc10r2, fc10bl)
	VADDPS Z26, Z13, Z26
	LAST($44)
	FAST_C(projArgs_yc+44(AX), fc11r2, fc11bl)
	VADDPS Z27, Z13, Z27
	LAST($48)
	FAST_C(projArgs_yc+48(AX), fc12r2, fc12bl)
	VADDPS Z28, Z13, Z28
	LAST($52)
	FAST_C(projArgs_yc+52(AX), fc13r2, fc13bl)
	VADDPS Z29, Z13, Z29
	LAST($56)
	FAST_C(projArgs_yc+56(AX), fc14r2, fc14bl)
	VADDPS Z30, Z13, Z30
	LAST($60)
	FAST_C(projArgs_yc+60(AX), fc15r2, fc15bl)
	VADDPS Z31, Z13, Z31
	LAST($64)

fplain:
	FAST_P(projArgs_yc+0(AX), fp0r2, fp0bc, fp0bl)
	VADDPS Z16, Z13, Z16
	LAST($4)
	FAST_P(projArgs_yc+4(AX), fp1r2, fp1bc, fp1bl)
	VADDPS Z17, Z13, Z17
	LAST($8)
	FAST_P(projArgs_yc+8(AX), fp2r2, fp2bc, fp2bl)
	VADDPS Z18, Z13, Z18
	LAST($12)
	FAST_P(projArgs_yc+12(AX), fp3r2, fp3bc, fp3bl)
	VADDPS Z19, Z13, Z19
	LAST($16)
	FAST_P(projArgs_yc+16(AX), fp4r2, fp4bc, fp4bl)
	VADDPS Z20, Z13, Z20
	LAST($20)
	FAST_P(projArgs_yc+20(AX), fp5r2, fp5bc, fp5bl)
	VADDPS Z21, Z13, Z21
	LAST($24)
	FAST_P(projArgs_yc+24(AX), fp6r2, fp6bc, fp6bl)
	VADDPS Z22, Z13, Z22
	LAST($28)
	FAST_P(projArgs_yc+28(AX), fp7r2, fp7bc, fp7bl)
	VADDPS Z23, Z13, Z23
	LAST($32)
	FAST_P(projArgs_yc+32(AX), fp8r2, fp8bc, fp8bl)
	VADDPS Z24, Z13, Z24
	LAST($36)
	FAST_P(projArgs_yc+36(AX), fp9r2, fp9bc, fp9bl)
	VADDPS Z25, Z13, Z25
	LAST($40)
	FAST_P(projArgs_yc+40(AX), fp10r2, fp10bc, fp10bl)
	VADDPS Z26, Z13, Z26
	LAST($44)
	FAST_P(projArgs_yc+44(AX), fp11r2, fp11bc, fp11bl)
	VADDPS Z27, Z13, Z27
	LAST($48)
	FAST_P(projArgs_yc+48(AX), fp12r2, fp12bc, fp12bl)
	VADDPS Z28, Z13, Z28
	LAST($52)
	FAST_P(projArgs_yc+52(AX), fp13r2, fp13bc, fp13bl)
	VADDPS Z29, Z13, Z29
	LAST($56)
	FAST_P(projArgs_yc+56(AX), fp14r2, fp14bc, fp14bl)
	VADDPS Z30, Z13, Z30
	LAST($60)
	FAST_P(projArgs_yc+60(AX), fp15r2, fp15bc, fp15bl)
	VADDPS Z31, Z13, Z31
	LAST($64)

slow:
	// ---------------- guarded body: texture-border group --------------
	// Covered lanes: lane j live iff c0 ≤ gb+j < c1.
	MOVQ         projArgs_c0(AX), R14
	SUBQ         R10, R14
	DECQ         R14
	VPBROADCASTD R14, Z1
	VPCMPD       $1, lane015<>(SB), Z1, K1
	MOVQ         projArgs_c1(AX), R14
	SUBQ         R10, R14
	VPBROADCASTD R14, Z1
	VPCMPD       $6, lane015<>(SB), Z1, K1, K1

	// Floor instead of truncation — border x, y may be negative — then iu
	// clamped to the apron, [−2, nu], and biased like the fast body's.
	VRNDSCALEPS  $1, Z9, Z11
	VSUBPS       Z11, Z9, Z9              // eu = x − floor(x)
	VCVTTPS2DQ   Z11, Z11                 // iu
	VPMAXSD.BCST minus2<>(SB), Z11, Z11
	VPMINSD.BCST tileArgs_nu(DX), Z11, Z11
	VPSUBD.BCST  minus2<>(SB), Z11, Z11   // iu+2
	WINDOW(swin)
	FILL(SIV, splain, sfill)
	GUARD_C(projArgs_yc+0(AX), sc0r2, sc0bl, sp0ga)
	VADDPS Z13, Z16, K1, Z16
	LAST($4)
	GUARD_C(projArgs_yc+4(AX), sc1r2, sc1bl, sp1ga)
	VADDPS Z13, Z17, K1, Z17
	LAST($8)
	GUARD_C(projArgs_yc+8(AX), sc2r2, sc2bl, sp2ga)
	VADDPS Z13, Z18, K1, Z18
	LAST($12)
	GUARD_C(projArgs_yc+12(AX), sc3r2, sc3bl, sp3ga)
	VADDPS Z13, Z19, K1, Z19
	LAST($16)
	GUARD_C(projArgs_yc+16(AX), sc4r2, sc4bl, sp4ga)
	VADDPS Z13, Z20, K1, Z20
	LAST($20)
	GUARD_C(projArgs_yc+20(AX), sc5r2, sc5bl, sp5ga)
	VADDPS Z13, Z21, K1, Z21
	LAST($24)
	GUARD_C(projArgs_yc+24(AX), sc6r2, sc6bl, sp6ga)
	VADDPS Z13, Z22, K1, Z22
	LAST($28)
	GUARD_C(projArgs_yc+28(AX), sc7r2, sc7bl, sp7ga)
	VADDPS Z13, Z23, K1, Z23
	LAST($32)
	GUARD_C(projArgs_yc+32(AX), sc8r2, sc8bl, sp8ga)
	VADDPS Z13, Z24, K1, Z24
	LAST($36)
	GUARD_C(projArgs_yc+36(AX), sc9r2, sc9bl, sp9ga)
	VADDPS Z13, Z25, K1, Z25
	LAST($40)
	GUARD_C(projArgs_yc+40(AX), sc10r2, sc10bl, sp10ga)
	VADDPS Z13, Z26, K1, Z26
	LAST($44)
	GUARD_C(projArgs_yc+44(AX), sc11r2, sc11bl, sp11ga)
	VADDPS Z13, Z27, K1, Z27
	LAST($48)
	GUARD_C(projArgs_yc+48(AX), sc12r2, sc12bl, sp12ga)
	VADDPS Z13, Z28, K1, Z28
	LAST($52)
	GUARD_C(projArgs_yc+52(AX), sc13r2, sc13bl, sp13ga)
	VADDPS Z13, Z29, K1, Z29
	LAST($56)
	GUARD_C(projArgs_yc+56(AX), sc14r2, sc14bl, sp14ga)
	VADDPS Z13, Z30, K1, Z30
	LAST($60)
	GUARD_C(projArgs_yc+60(AX), sc15r2, sc15bl, sp15ga)
	VADDPS Z13, Z31, K1, Z31
	LAST($64)

splain:
	GUARD_P(projArgs_yc+0(AX), sp0r2, sp0bc, sp0bl)
	VADDPS Z13, Z16, K1, Z16
	LAST($4)
	GUARD_P(projArgs_yc+4(AX), sp1r2, sp1bc, sp1bl)
	VADDPS Z13, Z17, K1, Z17
	LAST($8)
	GUARD_P(projArgs_yc+8(AX), sp2r2, sp2bc, sp2bl)
	VADDPS Z13, Z18, K1, Z18
	LAST($12)
	GUARD_P(projArgs_yc+12(AX), sp3r2, sp3bc, sp3bl)
	VADDPS Z13, Z19, K1, Z19
	LAST($16)
	GUARD_P(projArgs_yc+16(AX), sp4r2, sp4bc, sp4bl)
	VADDPS Z13, Z20, K1, Z20
	LAST($20)
	GUARD_P(projArgs_yc+20(AX), sp5r2, sp5bc, sp5bl)
	VADDPS Z13, Z21, K1, Z21
	LAST($24)
	GUARD_P(projArgs_yc+24(AX), sp6r2, sp6bc, sp6bl)
	VADDPS Z13, Z22, K1, Z22
	LAST($28)
	GUARD_P(projArgs_yc+28(AX), sp7r2, sp7bc, sp7bl)
	VADDPS Z13, Z23, K1, Z23
	LAST($32)
	GUARD_P(projArgs_yc+32(AX), sp8r2, sp8bc, sp8bl)
	VADDPS Z13, Z24, K1, Z24
	LAST($36)
	GUARD_P(projArgs_yc+36(AX), sp9r2, sp9bc, sp9bl)
	VADDPS Z13, Z25, K1, Z25
	LAST($40)
	GUARD_P(projArgs_yc+40(AX), sp10r2, sp10bc, sp10bl)
	VADDPS Z13, Z26, K1, Z26
	LAST($44)
	GUARD_P(projArgs_yc+44(AX), sp11r2, sp11bc, sp11bl)
	VADDPS Z13, Z27, K1, Z27
	LAST($48)
	GUARD_P(projArgs_yc+48(AX), sp12r2, sp12bc, sp12bl)
	VADDPS Z13, Z28, K1, Z28
	LAST($52)
	GUARD_P(projArgs_yc+52(AX), sp13r2, sp13bc, sp13bl)
	VADDPS Z13, Z29, K1, Z29
	LAST($56)
	GUARD_P(projArgs_yc+56(AX), sp14r2, sp14bc, sp14bl)
	VADDPS Z13, Z30, K1, Z30
	LAST($60)
	GUARD_P(projArgs_yc+60(AX), sp15r2, sp15bc, sp15bl)
	VADDPS Z13, Z31, K1, Z31
	LAST($64)

pnext:
	// The next entry, then the group back to the volume.
	ADDQ $projArgs__size, AX
	CMPQ AX, R11
	JL   entry
	MOVQ tileArgs_out(DX), BX
	LEAQ (BX)(R10*4), BX
	VMOVUPS Z16, K4, (BX)
	NEXTROW($4, stored)
	VMOVUPS Z17, K4, (BX)
	NEXTROW($8, stored)
	VMOVUPS Z18, K4, (BX)
	NEXTROW($12, stored)
	VMOVUPS Z19, K4, (BX)
	NEXTROW($16, stored)
	VMOVUPS Z20, K4, (BX)
	NEXTROW($20, stored)
	VMOVUPS Z21, K4, (BX)
	NEXTROW($24, stored)
	VMOVUPS Z22, K4, (BX)
	NEXTROW($28, stored)
	VMOVUPS Z23, K4, (BX)
	NEXTROW($32, stored)
	VMOVUPS Z24, K4, (BX)
	NEXTROW($36, stored)
	VMOVUPS Z25, K4, (BX)
	NEXTROW($40, stored)
	VMOVUPS Z26, K4, (BX)
	NEXTROW($44, stored)
	VMOVUPS Z27, K4, (BX)
	NEXTROW($48, stored)
	VMOVUPS Z28, K4, (BX)
	NEXTROW($52, stored)
	VMOVUPS Z29, K4, (BX)
	NEXTROW($56, stored)
	VMOVUPS Z30, K4, (BX)
	NEXTROW($60, stored)
	VMOVUPS Z31, K4, (BX)
	NEXTROW($64, stored)

stored:
	ADDQ        $16, R10
	VADDPS.BCST sixteen32<>(SB), Z0, Z0
	JMP         group

done:
	VZEROUPPER
	RET

	// Each slice's out-of-line fetches.
	CACHED_COLD(fc0r2, fc0bl, fp0ga)
	CACHED_COLD(fc1r2, fc1bl, fp1ga)
	CACHED_COLD(fc2r2, fc2bl, fp2ga)
	CACHED_COLD(fc3r2, fc3bl, fp3ga)
	CACHED_COLD(fc4r2, fc4bl, fp4ga)
	CACHED_COLD(fc5r2, fc5bl, fp5ga)
	CACHED_COLD(fc6r2, fc6bl, fp6ga)
	CACHED_COLD(fc7r2, fc7bl, fp7ga)
	CACHED_COLD(fc8r2, fc8bl, fp8ga)
	CACHED_COLD(fc9r2, fc9bl, fp9ga)
	CACHED_COLD(fc10r2, fc10bl, fp10ga)
	CACHED_COLD(fc11r2, fc11bl, fp11ga)
	CACHED_COLD(fc12r2, fc12bl, fp12ga)
	CACHED_COLD(fc13r2, fc13bl, fp13ga)
	CACHED_COLD(fc14r2, fc14bl, fp14ga)
	CACHED_COLD(fc15r2, fc15bl, fp15ga)
	SAMPLE_COLD(fp0r2, fp0bc, fp0ga, fp0pa, fp0bl)
	SAMPLE_COLD(fp1r2, fp1bc, fp1ga, fp1pa, fp1bl)
	SAMPLE_COLD(fp2r2, fp2bc, fp2ga, fp2pa, fp2bl)
	SAMPLE_COLD(fp3r2, fp3bc, fp3ga, fp3pa, fp3bl)
	SAMPLE_COLD(fp4r2, fp4bc, fp4ga, fp4pa, fp4bl)
	SAMPLE_COLD(fp5r2, fp5bc, fp5ga, fp5pa, fp5bl)
	SAMPLE_COLD(fp6r2, fp6bc, fp6ga, fp6pa, fp6bl)
	SAMPLE_COLD(fp7r2, fp7bc, fp7ga, fp7pa, fp7bl)
	SAMPLE_COLD(fp8r2, fp8bc, fp8ga, fp8pa, fp8bl)
	SAMPLE_COLD(fp9r2, fp9bc, fp9ga, fp9pa, fp9bl)
	SAMPLE_COLD(fp10r2, fp10bc, fp10ga, fp10pa, fp10bl)
	SAMPLE_COLD(fp11r2, fp11bc, fp11ga, fp11pa, fp11bl)
	SAMPLE_COLD(fp12r2, fp12bc, fp12ga, fp12pa, fp12bl)
	SAMPLE_COLD(fp13r2, fp13bc, fp13ga, fp13pa, fp13bl)
	SAMPLE_COLD(fp14r2, fp14bc, fp14ga, fp14pa, fp14bl)
	SAMPLE_COLD(fp15r2, fp15bc, fp15ga, fp15pa, fp15bl)
	CACHED_COLD(sc0r2, sc0bl, sp0ga)
	CACHED_COLD(sc1r2, sc1bl, sp1ga)
	CACHED_COLD(sc2r2, sc2bl, sp2ga)
	CACHED_COLD(sc3r2, sc3bl, sp3ga)
	CACHED_COLD(sc4r2, sc4bl, sp4ga)
	CACHED_COLD(sc5r2, sc5bl, sp5ga)
	CACHED_COLD(sc6r2, sc6bl, sp6ga)
	CACHED_COLD(sc7r2, sc7bl, sp7ga)
	CACHED_COLD(sc8r2, sc8bl, sp8ga)
	CACHED_COLD(sc9r2, sc9bl, sp9ga)
	CACHED_COLD(sc10r2, sc10bl, sp10ga)
	CACHED_COLD(sc11r2, sc11bl, sp11ga)
	CACHED_COLD(sc12r2, sc12bl, sp12ga)
	CACHED_COLD(sc13r2, sc13bl, sp13ga)
	CACHED_COLD(sc14r2, sc14bl, sp14ga)
	CACHED_COLD(sc15r2, sc15bl, sp15ga)
	SAMPLE_COLD(sp0r2, sp0bc, sp0ga, sp0pa, sp0bl)
	SAMPLE_COLD(sp1r2, sp1bc, sp1ga, sp1pa, sp1bl)
	SAMPLE_COLD(sp2r2, sp2bc, sp2ga, sp2pa, sp2bl)
	SAMPLE_COLD(sp3r2, sp3bc, sp3ga, sp3pa, sp3bl)
	SAMPLE_COLD(sp4r2, sp4bc, sp4ga, sp4pa, sp4bl)
	SAMPLE_COLD(sp5r2, sp5bc, sp5ga, sp5pa, sp5bl)
	SAMPLE_COLD(sp6r2, sp6bc, sp6ga, sp6pa, sp6bl)
	SAMPLE_COLD(sp7r2, sp7bc, sp7ga, sp7pa, sp7bl)
	SAMPLE_COLD(sp8r2, sp8bc, sp8ga, sp8pa, sp8bl)
	SAMPLE_COLD(sp9r2, sp9bc, sp9ga, sp9pa, sp9bl)
	SAMPLE_COLD(sp10r2, sp10bc, sp10ga, sp10pa, sp10bl)
	SAMPLE_COLD(sp11r2, sp11bc, sp11ga, sp11pa, sp11bl)
	SAMPLE_COLD(sp12r2, sp12bc, sp12ga, sp12pa, sp12bl)
	SAMPLE_COLD(sp13r2, sp13bc, sp13ga, sp13pa, sp13bl)
	SAMPLE_COLD(sp14r2, sp14bc, sp14ga, sp14pa, sp14bl)
	SAMPLE_COLD(sp15r2, sp15bc, sp15ga, sp15pa, sp15bl)
