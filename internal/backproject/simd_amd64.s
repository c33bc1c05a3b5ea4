//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// AVX2 implementation of the SIMD coordinate contract (see simd.go).
//
// One call covers the supported span [c0,c1) of one volume row in the h
// slices of a k-tile, for one projection whose u and w do not depend on z
// (the caller proves that, or passes h = 1). Per 8-column group the
// z-invariant work — the divide, x, iu, eu, rz², the contiguous-window
// test — is done once; the slice loop inside recomputes only what v moves:
// y, iv, ev, the four sample loads (SAMPLE) and the accumulate into the
// slice's row. Groups wholly inside the interior sub-span [f0,f1) run the
// unguarded fast body, every other covered group the guarded body: floor
// instead of truncation, the footprint's origin clamped into the store's
// zero apron (device.Layout: the texture border is data) and a lane mask on
// the accumulate. Both bodies read the same lane values and fetch through
// the one SAMPLE, so a column computes the same value whichever body its
// group lands in — the decomposition invariance the kernel promises.
//
// Register plan, held across the whole kernel:
//   Y0, Y2    = u, w coordinate lanes (8 columns per vector)
//   Y4        = per-group step 8·ay (8·ax and 8·az are stack operands)
//   Y6        = 1.0 broadcast (the dividend of rz = 1/w)
//   per group: Y8 = rz, Y9 = eu, Y10 = rz², Y11 = iu+2, Y3 = window lane
//   Y1, Y5, Y7, Y12..Y15 = slice-loop scratch
//   AX = args   DI = data − 2 floats (iu+2 indexes it)   SI = rows
//   DX = out (row in the first slice)
//   R8 = anchor b   R10 = group base   R11 = segment end
//   R12 = segment start   BX = row in the current slice
//   R9 = 32·slice (offset into the v lanes)   CX = window base or −1
//   R13, R14 = scratch
//
// The v lanes live on the stack, one vector per slice: slice k's lanes
// start each segment at ay·float32(b+j) + yc[k] and step by 8·ay per group,
// exactly the contract's per-row walk.
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

// lane07: the int32 vector {0,1,...,7} for anchor init and range masks.
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

DATA eight32<>+0(SB)/4, $0x41000000 // float32(8)
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
//   axv-168(SP)  32B   broadcast row constants (segment re-anchor reads
//   ayv-200(SP)  32B   them as memory operands — fewer front-end ops per
//   azv-232(SP)  32B   segment than re-broadcasting)
//   xcv-264(SP)  32B
//   zcv-296(SP)  32B
//   ax8v-328(SP) 32B   per-group steps 8·ax, 8·az (power-of-two: exact)
//   az8v-360(SP) 32B
//   fsS-368(SP)   8B   first 8-aligned group base inside [f0,f1)
//   feGS-376(SP)  8B   first 8-aligned group base at/past f1−7
//   feS-384(SP)   8B   fast-window end for the current segment
//   hbS-392(SP)   8B   32·h, the end of the v lanes
//   vS-648(SP)  256B   v lanes, 32 B per slice
//
// The grid of group bases is 8-aligned (anchors are 32-aligned), so the
// per-group test "base ≥ f0 && base+8 ≤ f1" is exactly the window
// "base ∈ [fs, feG)" with fs = (f0+7)&^7 and feG = f1&^7, and within a
// segment the fast groups form one contiguous run [fs, min(feG, segend)).
// That lets the hot path loop on a single compare instead of re-deciding
// fast-vs-guarded every group.

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
TEXT ·fusedTileAVX2(SB), NOSPLIT, $648-8
	MOVQ a+0(FP), AX
	MOVQ simdRowArgs_data(AX), DI
	SUBQ $8, DI                   // iu+2 indexes the samples
	MOVQ simdRowArgs_rows(AX), SI // int32 table: entry iv−(lo−2) is row iv
	MOVQ simdRowArgs_out(AX), DX

	// Broadcast the row constants once; build the step vectors 8·a (exact
	// power-of-two scaling, matching the Go spelling's ax*8 to the bit)
	// from the same broadcasts.
	VBROADCASTSS eight32<>(SB), Y8
	VBROADCASTSS simdRowArgs_ax(AX), Y9
	VMOVUPS      Y9, axv-168(SP)
	VMULPS       Y8, Y9, Y9
	VMOVUPS      Y9, ax8v-328(SP)
	VBROADCASTSS simdRowArgs_ay(AX), Y9
	VMOVUPS      Y9, ayv-200(SP)
	VMULPS       Y8, Y9, Y4
	VBROADCASTSS simdRowArgs_az(AX), Y9
	VMOVUPS      Y9, azv-232(SP)
	VMULPS       Y8, Y9, Y9
	VMOVUPS      Y9, az8v-360(SP)
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
	VBROADCASTSS one32<>(SB), Y6

	// Fast-window bounds on the 8-aligned group grid.
	MOVQ simdRowArgs_f0(AX), R13
	ADDQ $7, R13
	ANDQ $-8, R13
	MOVQ R13, fsS-368(SP)
	MOVQ simdRowArgs_f1(AX), R13
	ANDQ $-8, R13
	MOVQ R13, feGS-376(SP)
	MOVQ simdRowArgs_h(AX), R13
	SHLQ $5, R13
	MOVQ R13, hbS-392(SP)

	// First anchor: b = c0 &^ 31 (fixed absolute columns).
	MOVQ simdRowArgs_c0(AX), R8
	ANDQ $-32, R8

segment:
	CMPQ R8, simdRowArgs_c1(AX)
	JGE  done

	// R11 = segment end = min(b+32, c1); R12 = segment start = max(b, c0).
	LEAQ 32(R8), R11
	CMPQ R11, simdRowArgs_c1(AX)
	JLE  g1done
	MOVQ simdRowArgs_c1(AX), R11

g1done:
	MOVQ R8, R12
	CMPQ R12, simdRowArgs_c0(AX)
	JGE  g0done
	MOVQ simdRowArgs_c0(AX), R12

g0done:
	// Clamp the fast window to this segment so the tight loop never runs
	// through a re-anchor point.
	MOVQ feGS-376(SP), R13
	CMPQ R13, R11
	JLE  feok
	MOVQ R11, R13

feok:
	MOVQ R13, feS-384(SP)

	// Anchor init: lane j holds op·float32(b+j) + oc — separate multiply
	// and add, never fused, per the contract. The v lanes share the
	// product and add each slice's own constant.
	MOVL         R8, tmp-8(SP)
	VPBROADCASTD tmp-8(SP), Y8
	VPADDD       lane07<>(SB), Y8, Y8
	VCVTDQ2PS    Y8, Y8
	VMULPS       axv-168(SP), Y8, Y0
	VADDPS       xcv-264(SP), Y0, Y0
	VMULPS       azv-232(SP), Y8, Y2
	VADDPS       zcv-296(SP), Y2, Y2
	VMULPS       ayv-200(SP), Y8, Y8
	XORQ         R9, R9
	XORQ         R13, R13

vinit:
	VBROADCASTSS simdRowArgs_yc(AX)(R13*1), Y9
	VADDPS       Y9, Y8, Y9
	VMOVUPS      Y9, vS-648(SP)(R9*1)
	ADDQ         $4, R13
	ADDQ         $32, R9
	CMPQ         R9, hbS-392(SP)
	JL           vinit

	MOVQ R8, R10 // group base = b

group:
	CMPQ R10, R11
	JGE  nextseg
	CMPQ R10, fsS-368(SP)
	JL   slow
	CMPQ R10, feS-384(SP)
	JGE  slow

	// ---------------- fast body: 8 interior columns -------------------
	// Every group in [fs, fe) sits wholly inside the interior [f0,f1)
	// and is automatically fully active (f0≥c0, f1≤c1).

fast:
	// rz = 1/w, the exact divide: once per group, whatever the tile height.
	VDIVPS Y2, Y6, Y8

	// x = u·rz; integer part by truncation (== floor: x ≥ 0).
	VMULPS     Y0, Y8, Y9             // x
	VCVTTPS2DQ Y9, Y11                // iu
	VCVTDQ2PS  Y11, Y13
	VSUBPS     Y13, Y9, Y9            // eu = x − float32(iu)
	VMULPS     Y8, Y8, Y10            // rz²
	VPSUBD     minus2v<>(SB), Y11, Y11 // iu+2
	WINDOW(fwin)
	LEAQ       (DX)(R10*4), BX
	XORQ       R9, R9

fslice:
	// y = v·rz, then step this slice's v lanes to the next group.
	VMULPS     vS-648(SP)(R9*1), Y8, Y12
	VADDPS     vS-648(SP)(R9*1), Y4, Y13
	VMOVUPS    Y13, vS-648(SP)(R9*1)
	VCVTTPS2DQ Y12, Y13      // iv
	VCVTDQ2PS  Y13, Y14
	VSUBPS     Y14, Y12, Y12 // ev = y − float32(iv)
	SAMPLE(frows2, fbcast, fblend)

	// A plain unmasked accumulate: the group is fully active.
	VADDPS  (BX), Y13, Y13
	VMOVUPS Y13, (BX)
	ADDQ    simdRowArgs_stride(AX), BX
	ADDQ    $32, R9
	CMPQ    R9, hbS-392(SP)
	JL      fslice

	VADDPS ax8v-328(SP), Y0, Y0
	VADDPS az8v-360(SP), Y2, Y2
	ADDQ   $8, R10
	CMPQ   R10, feS-384(SP)
	JL     fast
	JMP    group

	SAMPLE_COLD(frows2, fbcast, fgather, fpairs, fblend)

slow:
	// Groups wholly before the segment start only advance the lanes —
	// each addition rounds, so skipping them would desync the contract.
	LEAQ 8(R10), R13
	CMPQ R13, R12
	JLE  advancev

	// ---------------- guarded body: texture-border group --------------
	// Active-lane mask: lane j live iff start ≤ gb+j < end:
	// (lane07 > start−gb−1) AND (end−gb > lane07).
	MOVQ         R12, R13
	SUBQ         R10, R13
	DECQ         R13
	MOVL         R13, tmp-8(SP)
	VPBROADCASTD tmp-8(SP), Y8
	VMOVDQU      lane07<>(SB), Y9
	VPCMPGTD     Y8, Y9, Y7
	MOVQ         R11, R13
	SUBQ         R10, R13
	MOVL         R13, tmp-8(SP)
	VPBROADCASTD tmp-8(SP), Y10
	VPCMPGTD     Y9, Y10, Y11
	VPAND        Y11, Y7, Y7
	VMOVDQU      Y7, maskS-40(SP)

	// Same contract arithmetic as the fast body, with floor instead of
	// truncation — border x, y may be negative — then iu clamped to the
	// apron, [−2, nu], and biased like the fast body's.
	VDIVPS     Y2, Y6, Y8               // rz
	VMULPS     Y0, Y8, Y9               // x
	VMULPS     Y8, Y8, Y10              // rz²
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
	VMULPS     vS-648(SP)(R9*1), Y8, Y12 // y
	VADDPS     vS-648(SP)(R9*1), Y4, Y13
	VMOVUPS    Y13, vS-648(SP)(R9*1)
	VROUNDPS   $1, Y12, Y13
	VSUBPS     Y13, Y12, Y12             // ev = y − floor(y)
	VCVTTPS2DQ Y13, Y13                  // iv, clamped to [lo−2, hi]: the row
	VPMAXSD    lo2v-72(SP), Y13, Y13     // table's zero-slot entries
	VPMINSD    hiv-136(SP), Y13, Y13
	SAMPLE(srows2, sbcast, sblend)

	// row[gb..gb+8) += the sample, masked load/add/store.
	VMOVDQU    maskS-40(SP), Y7
	VMASKMOVPS (BX), Y7, Y14
	VADDPS     Y13, Y14, Y14
	VMASKMOVPS Y14, Y7, (BX)
	ADDQ       simdRowArgs_stride(AX), BX
	ADDQ       $32, R9
	CMPQ       R9, hbS-392(SP)
	JL         sslice
	JMP        advance

	SAMPLE_COLD(srows2, sbcast, sgather, spairs, sblend)

advancev:
	XORQ R9, R9

vstep:
	VADDPS  vS-648(SP)(R9*1), Y4, Y13
	VMOVUPS Y13, vS-648(SP)(R9*1)
	ADDQ    $32, R9
	CMPQ    R9, hbS-392(SP)
	JL      vstep

advance:
	VADDPS ax8v-328(SP), Y0, Y0
	VADDPS az8v-360(SP), Y2, Y2
	ADDQ   $8, R10
	JMP    group

nextseg:
	ADDQ $32, R8
	JMP  segment

done:
	VZEROUPPER
	RET
