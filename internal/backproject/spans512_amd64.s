//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// blockSpans512: rowRec for every projection of a block at once, the
// block's projections in the sixteen lanes of AVX-512 vectors (see
// recurrence.go for rowRec, rowSpans and clipRow, which this spells lane
// for lane). One call makes one launch's entries: the row constants, the
// float64 pre-reject, pre-accept and clipRow solves, the float32 endpoint
// probes, the counters and the entries in ascending s.
//
// Every value is the scalar path's, bit for bit: each float operation is
// the one Go compiles for amd64 — a product rounded before the add it
// feeds (no FMA), one IEEE divide per quotient, math.Ceil and math.Floor
// as VRNDSCALEPD, int(float64) as VCVTTPD2QQ, which, like Go's CVTTSD2SQ,
// makes 0x8000000000000000 of a NaN, an infinity or anything past 2⁶³.
// Where the scalar code branches, the lanes compute both sides and keep
// one under an opmask; a branch that updates a running value (clipSpan's
// bounds, the probes' walks) is a merge-masked update, taken in the scalar
// code's order. A probe loop runs while any lane still moves.
//
// The probes need no floor. With iu = int(floor32(x)) (a NaN, an infinity
// or |x| ≥ 2⁶³ converts to 0x8000000000000000 on amd64, a huge negative
// iu) and the window's edges integers below 2²⁴ (blockLanes):
//   iu ≥ 0 && iu+1 < nu         ⟺  0 ≤ x < nu−1
//   iv ≥ lo && iv+1 < hi        ⟺  lo ≤ y < hi−1
//   iu < −1 || iu ≥ nu          ⟺  ¬(−1 ≤ x < nu)
//   ivb < lo−1                  ⟺  yb < lo−1 || ¬(yb < 2⁶³)
//   iva ≥ hi                    ⟺  ya ≥ hi && ya < 2⁶³
// every comparison ordered (false on a NaN) except ¬(yb < 2⁶³), which is
// true on one.
//
// Registers, after the float64 solves:
//   Z0, Z1, Z2 = ax, ay, az (m.R0[0], m.R1[0], m.R2[0])
//   Z3, Z4     = xc, zc
//   Z5, Z6     = ya, yb: the end slices' v constants, the lower first
//   Z8         = the tile's slice indices kf[t] (slice lanes)
//   Z9..Z12    = c0, c1, i0, i1 (int32)
//   Z13 = int32 1   Z14 = 1.0   Z19 = 0
//   Z28, Z29, Z30 = −1.0, 2⁶³, MaxFloat32
//   K1 = the lanes whose spans are walked   K2 = the tile's slices
//   DX = args   BX = the lanes   DI = the next entry
//
// Frame (bytes from the hardware SP): the lanes' xc, zc, ya, yb and yj
// (float32, 64 bytes each) at 0, 64, 128, 192 and 256; the clipRow results
// c0, c1, i0, i1 (int32) at 320, 384, 448 and 512, later the entries' c0,
// c1, f0 and f1; the halves' masks w > 0, pre-reject and solve at 576, 578
// and 580.

// ENDS puts b·w0 in Z26 and b·wn in Z27 for one of rowSpans' endpoint
// tests of a boundary b (a float64 at the address given) against both ends
// of the row, w0 in Z21 and wn in Z24.
#define ENDS(b) \
	VMULPD.BCST b, Z21, Z26; \
	VMULPD.BCST b, Z24, Z27

// CLIP is one clipSpan of clipRow on the running [lower, upper] in Z28,
// Z29: the boundary b·zc − oc, oc in Z18, against the column coefficient
// c at coef, lower raised to q = (b·zc − oc)/c where c lowc 0, upper
// lowered to it where c upc 0, and both set infeasible (1, 0) where c is 0
// and the right-hand side infc 0. Clobbers Z15, Z16, Z17, K4.
#define CLIP(b, coef, lowc, upc, infc) \
	VMULPD.BCST b, Z21, Z15;              \
	VSUBPD      Z18, Z15, Z15;            \ // the right-hand side b·zc − oc
	VMOVUPD     coef(BX)(R11*2), Z16;     \ // c
	VDIVPD      Z16, Z15, Z17;            \ // q
	VCMPPD      lowc, Z19, Z16, K4;       \
	VMAXPD      Z28, Z17, K4, Z28;        \ // if q > lower { lower = q }
	VCMPPD      upc, Z19, Z16, K4;        \
	VMINPD      Z29, Z17, K4, Z29;        \ // if q < upper { upper = q }
	VCMPPD      $0x00, Z19, Z16, K4;      \
	VCMPPD      infc, Z19, Z15, K4, K4;   \
	VMOVAPD     Z30, K4, Z28;             \
	VMOVAPD     Z19, K4, Z29

// CLIPROW is clipRow for the half's solve lanes K6: the four boundaries of
// bound (x low, x high, y low, y high) against coef, x held to xc in Z20,
// y low to the row constant in Z24 and y high to the one in Z25, then
// [ceil(lower), floor(upper)+1) clamped to [0, nx), (0, 0) when empty,
// stored as int32 at i0 and i1 in the frame.
#define CLIPROW(bound, coef, i0, i1) \
	VMOVAPD      Z19, Z28;                                     \
	VBROADCASTSD blockLanes_last(BX), Z29;                     \
	VMOVAPD      Z20, Z18;                                     \
	CLIP(bound+0(BX), coef+0, $0x1e, $0x11, $0x1e);            \ // c·i ≥ b
	CLIP(bound+8(BX), coef+128, $0x11, $0x1e, $0x11);          \ // c·i ≤ b
	VMOVAPD      Z24, Z18;                                     \
	CLIP(bound+16(BX), coef+256, $0x1e, $0x11, $0x1e);         \
	VMOVAPD      Z25, Z18;                                     \
	CLIP(bound+24(BX), coef+384, $0x11, $0x1e, $0x11);         \
	VRNDSCALEPD  $0x0a, Z28, Z28;                              \ // math.Ceil
	VRNDSCALEPD  $0x09, Z29, Z29;                              \ // math.Floor
	VCVTTPD2QQ   Z28, Z28;                                     \
	VCVTTPD2QQ   Z29, Z29;                                     \
	VPADDQ       Z31, Z29, Z29;                                \
	VPMAXSQ      Z19, Z28, Z28;                                \
	VPMINSQ.BCST blockLanes_nx(BX), Z29, Z29;                  \
	VPCMPQ       $1, Z29, Z28, K4;                             \ // i0 < i1
	VPMOVQD.Z    Z28, K4, Y28;                                 \
	VPMOVQD.Z    Z29, K4, Y29;                                 \
	VMOVDQU32    Y28, K6, i0(SP)(R11*1);                       \
	VMOVDQU32    Y29, K6, i1(SP)(R11*1)

// COORDS evaluates tileFootprint's coordinates at the int32 columns in
// Z15, per the coordinate contract: Z27 = rz = 1/(az·i + zc), Z24 = x,
// Z25 = y in the lower end slice, Z26 in the upper one.
#define COORDS \
	VCVTDQ2PS Z15, Z20;      \
	VMULPS    Z20, Z2, Z21;  \
	VADDPS    Z21, Z4, Z21;  \ // w
	VDIVPS    Z21, Z14, Z27; \ // rz
	VMULPS    Z20, Z0, Z24;  \
	VADDPS    Z24, Z3, Z24;  \ // u
	VMULPS    Z27, Z24, Z24; \ // x
	VMULPS    Z20, Z1, Z20;  \ // ay·i
	VADDPS    Z20, Z5, Z25;  \
	VMULPS    Z27, Z25, Z25; \ // ya
	VADDPS    Z20, Z6, Z26;  \
	VMULPS    Z27, Z26, Z26    // yb

// RESIDENT sets kout to the lanes of kin whose footprint COORDS found
// resident in both end slices: interiorResident.
#define RESIDENT(kin, kout) \
	VCMPPS      $0x1d, Z19, Z24, kin, kout;                  \ // x ≥ 0
	VCMPPS.BCST $0x11, blockLanes_nu1(BX), Z24, kout, kout;  \ // x < nu−1
	VCMPPS.BCST $0x1d, blockLanes_lo(BX), Z25, kout, kout;   \
	VCMPPS.BCST $0x11, blockLanes_hi1(BX), Z25, kout, kout;  \
	VCMPPS.BCST $0x1d, blockLanes_lo(BX), Z26, kout, kout;   \
	VCMPPS.BCST $0x11, blockLanes_hi1(BX), Z26, kout, kout

// ZERO sets kout to the lanes of kin whose contribution COORDS found
// provably +0: zeroContrib. Clobbers Z20, K6, K7.
#define ZERO(kin, kout) \
	VMULPS      Z27, Z27, Z20;                              \
	VCMPPS      $0x11, Z30, Z20, kin, kout;                 \ // rz² < MaxFloat32
	VCMPPS      $0x1d, Z28, Z24, K6;                        \ // x ≥ −1
	VCMPPS.BCST $0x11, blockLanes_nu(BX), Z24, K6, K6;      \ // x < nu
	KNOTW       K6, K6;                                     \
	VCMPPS.BCST $0x11, blockLanes_lo1(BX), Z26, K7;         \ // yb < lo−1
	KORW        K7, K6, K6;                                 \
	VCMPPS      $0x15, Z29, Z26, K7;                        \ // ¬(yb < 2⁶³)
	KORW        K7, K6, K6;                                 \
	VCMPPS.BCST $0x1d, blockLanes_hi(BX), Z25, K7;          \ // ya ≥ hi
	VCMPPS      $0x11, Z29, Z25, K7, K7;                    \ // ya < 2⁶³
	KORW        K7, K6, K6;                                 \
	KANDW       K6, kout, kout

// HSUM leaves the sum of the int32 lanes of Z20 in reg. Clobbers Z15,
// Z16.
#define HSUM(reg) \
	VEXTRACTI64X4 $1, Z20, Y15;   \
	VPADDD        Y15, Y20, Y15;  \
	VEXTRACTI32X4 $1, Y15, X16; \
	VPADDD        X16, X15, X15; \
	VPSHUFD       $0x4e, X15, X16; \
	VPADDD        X16, X15, X15; \
	VPSHUFD       $0xb1, X15, X16; \
	VPADDD        X16, X15, X15; \
	VMOVD         X15, reg

// func blockSpans512(args *tileArgs, l *blockLanes, kf *float32, jf float32, ctr *kernelCounters)
TEXT ·blockSpans512(SB), NOSPLIT, $592-40
	MOVQ args+0(FP), DX
	MOVQ l+8(FP), BX
	MOVQ kf+16(FP), SI

	// K1: the block's lanes; K2: the tile's slices.
	MOVQ blockLanes_n(BX), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	MOVQ tileArgs_h(DX), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2
	VMOVUPS.Z    (SI), K2, Z8
	MOVL         jf+24(FP), AX
	VPBROADCASTD AX, Z7
	VBROADCASTSS (SI), Z15         // kf[0]
	VBROADCASTSS -4(SI)(CX*4), Z16 // kf[h−1]

	// rowRec's row constants: yj = m.R1[1]·jf, the end slices' v
	// constants yc = (yj + m.R1[2]·k) + m.R1[3], then xc and zc.
	VMULPS blockLanes_r1+64(BX), Z7, Z17
	VMULPS blockLanes_r1+128(BX), Z15, Z5
	VADDPS Z5, Z17, Z5
	VADDPS blockLanes_r1+192(BX), Z5, Z5
	VMULPS blockLanes_r1+128(BX), Z16, Z6
	VADDPS Z6, Z17, Z6
	VADDPS blockLanes_r1+192(BX), Z6, Z6
	VMULPS blockLanes_r0+64(BX), Z7, Z3
	VMULPS blockLanes_r0+128(BX), Z15, Z18
	VADDPS Z18, Z3, Z3
	VADDPS blockLanes_r0+192(BX), Z3, Z3
	VMULPS blockLanes_r2+64(BX), Z7, Z4
	VMULPS blockLanes_r2+128(BX), Z15, Z18
	VADDPS Z18, Z4, Z4
	VADDPS blockLanes_r2+192(BX), Z4, Z4

	// rowSpans: if ya > yb { ya, yb = yb, ya }
	VCMPPS  $0x1e, Z6, Z5, K3
	VMOVAPS Z5, Z18
	VMOVAPS Z6, K3, Z5
	VMOVAPS Z18, K3, Z6
	VMOVUPS Z3, 0(SP)
	VMOVUPS Z4, 64(SP)
	VMOVUPS Z5, 128(SP)
	VMOVUPS Z6, 192(SP)
	VMOVUPS Z17, 256(SP)

	// The float64 solves, eight lanes at a time: R10 the half, R11 its
	// byte offset among float32 lanes.
	VPXORD       Z19, Z19, Z19
	MOVQ         $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z30 // float64 1
	MOVL         $1, AX
	VPBROADCASTQ AX, Z31 // int64 1
	XORL         R10, R10

half:
	MOVQ      R10, R11
	SHLQ      $5, R11
	VCVTPS2PD 0(SP)(R11*1), Z20   // xcd = ux0
	VCVTPS2PD 64(SP)(R11*1), Z21  // zcd = w0
	VCVTPS2PD 128(SP)(R11*1), Z22 // yld = yl0
	VCVTPS2PD 192(SP)(R11*1), Z23 // yhd = yh0
	VADDPD    blockLanes_azn(BX)(R11*2), Z21, Z24 // wn
	VADDPD    blockLanes_axn(BX)(R11*2), Z20, Z25 // uxn
	VADDPD    blockLanes_ayn(BX)(R11*2), Z22, Z18 // yln
	VADDPD    blockLanes_ayn(BX)(R11*2), Z23, Z17 // yhn

	// K3: w0 > 0 && wn > 0; the other lanes may cross z = 0.
	VCMPPD $0x1e, Z19, Z21, K3
	VCMPPD $0x1e, Z19, Z24, K3, K3

	// K4: the endpoint pre-reject against the support boundaries.
	ENDS(blockLanes_win+spanWindow_support+0(BX))
	VCMPPD $0x11, Z26, Z20, K3, K4 // ux0 < b·w0
	VCMPPD $0x11, Z27, Z25, K4, K4 // uxn < b·wn
	ENDS(blockLanes_win+spanWindow_support+8(BX))
	VCMPPD $0x1e, Z26, Z20, K3, K5 // ux0 > b·w0
	VCMPPD $0x1e, Z27, Z25, K5, K5
	KORB   K5, K4, K4
	ENDS(blockLanes_win+spanWindow_support+16(BX))
	VCMPPD $0x11, Z26, Z23, K3, K5 // yh0 < b·w0
	VCMPPD $0x11, Z27, Z17, K5, K5
	KORB   K5, K4, K4
	ENDS(blockLanes_win+spanWindow_support+24(BX))
	VCMPPD $0x1e, Z26, Z22, K3, K5 // yl0 > b·w0
	VCMPPD $0x1e, Z27, Z18, K5, K5
	KORB   K5, K4, K4

	// K5: the fully-interior pre-accept of the rest; K6: the lanes left to
	// clipRow.
	KANDNB K3, K4, K5
	ENDS(blockLanes_win+spanWindow_accept+0(BX))
	VCMPPD $0x1e, Z26, Z20, K5, K5 // ux0 > b·w0
	VCMPPD $0x1e, Z27, Z25, K5, K5
	ENDS(blockLanes_win+spanWindow_accept+8(BX))
	VCMPPD $0x11, Z26, Z20, K5, K5 // ux0 < b·w0
	VCMPPD $0x11, Z27, Z25, K5, K5
	ENDS(blockLanes_win+spanWindow_accept+16(BX))
	VCMPPD $0x1e, Z26, Z22, K5, K5 // yl0 > b·w0
	VCMPPD $0x1e, Z27, Z18, K5, K5
	ENDS(blockLanes_win+spanWindow_accept+24(BX))
	VCMPPD $0x11, Z26, Z23, K5, K5 // yh0 < b·w0
	VCMPPD $0x11, Z27, Z17, K5, K5
	KANDNB K3, K4, K6
	KANDNB K6, K5, K6
	KMOVB  K3, 576(SP)(R10*1)
	KMOVB  K4, 578(SP)(R10*1)
	KMOVB  K6, 580(SP)(R10*1)
	KORTESTB K6, K6
	JZ     solved
	// The support holds the lower end slice to y's upper boundary and the
	// upper one to its lower; the interior the other way round.
	VMOVAPD Z23, Z24
	VMOVAPD Z22, Z25
	CLIPROW(blockLanes_win+spanWindow_support, blockLanes_support, 320, 384)
	VMOVAPD Z22, Z24
	VMOVAPD Z23, Z25
	CLIPROW(blockLanes_win+spanWindow_interior, blockLanes_interior, 448, 512)

solved:
	INCQ R10
	CMPQ R10, $2
	JLT  half

	// The spans: a whole-row accept (0, nx, 0, nx), clipRow's where it ran,
	// (0, nx, 0, 0) where z may cross, (0, 0, 0, 0) where the support
	// misses the row and in the lanes past the block.
	VPXORD       Z9, Z9, Z9
	VPBROADCASTD blockLanes_nx(BX), Z10
	VPXORD       Z11, Z11, Z11
	VMOVDQA32    Z10, Z12
	KMOVW        580(SP), K3
	KANDW        K1, K3, K3
	VMOVDQU32    320(SP), K3, Z9
	VMOVDQU32    384(SP), K3, Z10
	VMOVDQU32    448(SP), K3, Z11
	VMOVDQU32    512(SP), K3, Z12
	KMOVW        576(SP), K4
	KMOVW        578(SP), K5
	KANDW        K1, K4, K6
	KANDNW       K6, K5, K3 // walked: w > 0 and not pre-rejected
	KANDNW       K1, K4, K7 // z may cross
	KORW         K3, K7, K6
	VMOVDQA32.Z  Z10, K6, Z10
	VMOVDQA32.Z  Z12, K3, Z12
	KMOVW        K3, K1

	// The probes' constants.
	VMOVUPS      blockLanes_r0(BX), Z0
	VMOVUPS      blockLanes_r1(BX), Z1
	VMOVUPS      blockLanes_r2(BX), Z2
	MOVL         $1, AX
	VPBROADCASTD AX, Z13
	MOVL         $0x3f800000, AX
	VPBROADCASTD AX, Z14 // 1.0
	MOVL         $0xbf800000, AX
	VPBROADCASTD AX, Z28 // −1.0
	MOVL         $0x5f000000, AX
	VPBROADCASTD AX, Z29 // 2⁶³
	MOVL         $0x7f7fffff, AX
	VPBROADCASTD AX, Z30 // MaxFloat32

	// for i0 < i1 && !interiorResident(i0) { i0++ }
	VPCMPD $1, Z12, Z11, K1, K4

first:
	KORTESTW  K4, K4
	JZ        last
	VMOVDQA32 Z11, Z15
	COORDS
	RESIDENT(K4, K5)
	KANDNW   K4, K5, K4
	VPADDD   Z13, Z11, K4, Z11
	VPCMPD   $1, Z12, Z11, K4, K4
	JMP      first

	// for i0 < i1 && !interiorResident(i1−1) { i1-- }
last:
	VPCMPD $1, Z12, Z11, K1, K4

lastloop:
	KORTESTW  K4, K4
	JZ        below
	VPSUBD    Z13, Z12, Z15
	COORDS
	RESIDENT(K4, K5)
	KANDNW    K4, K5, K4
	VMOVDQA32 Z15, K4, Z12
	VPCMPD    $1, Z12, Z11, K4, K4
	JMP       lastloop

	// if c0 < c1, K3: for c0 > 0 && !zeroContrib(c0−1) { c0-- }
below:
	VPCMPD $1, Z10, Z9, K1, K3
	VPCMPD $6, Z19, Z9, K3, K4

belowloop:
	KORTESTW  K4, K4
	JZ        above
	VPSUBD    Z13, Z9, Z15
	COORDS
	ZERO(K4, K5)
	KANDNW    K4, K5, K4
	VMOVDQA32 Z15, K4, Z9
	VPCMPD    $6, Z19, Z9, K4, K4
	JMP       belowloop

	// for c1 < nx && !zeroContrib(c1) { c1++ }
above:
	VPCMPD.BCST $1, blockLanes_nx(BX), Z10, K3, K4

aboveloop:
	KORTESTW    K4, K4
	JZ          walked
	VMOVDQA32   Z10, Z15
	COORDS
	ZERO(K4, K5)
	KANDNW      K4, K5, K4
	VPADDD      Z13, Z10, K4, Z10
	VPCMPD.BCST $1, blockLanes_nx(BX), Z10, K4, K4
	JMP         aboveloop

	// The support holds the interior.
walked:
	VPCMPD  $1, Z12, Z11, K4
	VPMINSD Z11, Z9, K4, Z9
	VPMAXSD Z12, Z10, K4, Z10

	// The counters, per projection of the block and slice of the tile:
	// interior i1−i0, border (c1−c0)−(i1−i0) and skipped nx−(c1−c0).
	VPSUBD Z11, Z12, Z20 // i1 − i0
	VPSUBD Z9, Z10, Z21  // c1 − c0
	HSUM(AX)
	VMOVDQA32 Z21, Z20
	HSUM(R12)
	MOVQ tileArgs_h(DX), CX
	MOVQ ctr+32(FP), R8
	MOVQ AX, R9
	IMULQ CX, R9
	ADDQ R9, kernelCounters_interior(R8)
	MOVQ R12, R9
	SUBQ AX, R9
	IMULQ CX, R9
	ADDQ R9, kernelCounters_border(R8)
	MOVQ blockLanes_n(BX), R9
	IMULQ blockLanes_nx(BX), R9
	SUBQ R12, R9
	IMULQ CX, R9
	ADDQ R9, kernelCounters_skipped(R8)

	// The entries: a lane's covered [c0,c1) when it is not empty, and in it
	// [f0,f1) = [i0,i1), or [c0,c0) for an empty interior.
	KNOTW     K4, K5
	VMOVDQA32 Z9, K5, Z11
	VMOVDQA32 Z9, K5, Z12
	VMOVDQU32 Z9, 320(SP)
	VMOVDQU32 Z10, 384(SP)
	VMOVDQU32 Z11, 448(SP)
	VMOVDQU32 Z12, 512(SP)
	VPCMPD    $1, Z10, Z9, K5
	KMOVW     K5, AX
	LEAQ      tileArgs_ent(DX), DI
	XORL      CX, CX
	MOVQ      blockLanes_nx(BX), SI // the hull's least c0
	XORL      R8, R8                // and greatest c1

entry:
	TESTL AX, AX
	JZ    entered
	BSFL  AX, R12
	LEAL  -1(AX), R13
	ANDL  R13, AX
	// The data pointer is an interior pointer of the store the launch
	// holds, and args lives on the worker's stack: no write barrier.
	MOVQ    blockLanes_data(BX)(R12*8), R13
	MOVQ    R13, projArgs_data(DI)
	MOVLQSX 320(SP)(R12*4), R13
	MOVQ    R13, projArgs_c0(DI)
	CMPQ    R13, SI
	CMOVQLT R13, SI
	MOVLQSX 384(SP)(R12*4), R13
	MOVQ    R13, projArgs_c1(DI)
	CMPQ    R13, R8
	CMOVQGT R13, R8
	MOVLQSX 448(SP)(R12*4), R13
	MOVQ    R13, projArgs_f0(DI)
	MOVLQSX 512(SP)(R12*4), R13
	MOVQ    R13, projArgs_f1(DI)
	MOVL    blockLanes_r0(BX)(R12*4), R13
	MOVL    R13, projArgs_ax(DI)
	MOVL    blockLanes_r1(BX)(R12*4), R13
	MOVL    R13, projArgs_ay(DI)
	MOVL    blockLanes_r2(BX)(R12*4), R13
	MOVL    R13, projArgs_az(DI)
	MOVL    0(SP)(R12*4), R13
	MOVL    R13, projArgs_xc(DI)
	MOVL    64(SP)(R12*4), R13
	MOVL    R13, projArgs_zc(DI)
	// yc[t] = (yj + m.R1[2]·kf[t]) + m.R1[3], the slices in the lanes.
	VMULPS.BCST blockLanes_r1+128(BX)(R12*4), Z8, Z20
	VADDPS.BCST 256(SP)(R12*4), Z20, Z20
	VADDPS.BCST blockLanes_r1+192(BX)(R12*4), Z20, Z20
	VMOVUPS     Z20, K2, projArgs_yc(DI)
	ADDQ        $projArgs__size, DI
	INCQ        CX
	JMP         entry

entered:
	MOVQ  CX, tileArgs_n(DX)
	TESTQ CX, CX
	JZ    done
	MOVQ  SI, tileArgs_c0(DX)
	MOVQ  R8, tileArgs_c1(DX)

done:
	VZEROUPPER
	RET
