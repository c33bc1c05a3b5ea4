//go:build amd64

#include "textflag.h"

// The lane form of RealPlan's passes (see rfft.go) in assembly. Point j of
// lane l is zr[8j+l], zi[8j+l], so one point of the eight rows is 64
// contiguous bytes: one ZMM register (the ·…512 routines), or two YMM
// registers, its lanes 0–3 and 4–7 (the ·…256 routines, for hosts without
// AVX-512). Each macro below is one point's step of a Go pass, written for
// either width: a 512 routine runs it once per point, a 256 routine twice,
// 32 bytes apart. Twiddles and pair constants are broadcast to every lane;
// the arithmetic is VMULPD, VADDPD and VSUBPD on the operands of the Go
// loop — no FMA, and no instruction that moves a value between lanes — so
// every lane computes, bit for bit, what the per-row transform computes on
// its row. A 256 routine names only Y0–Y15, which AVX2 encodes.
//
// Addressing, every routine: the point (or a butterfly's a) at byte offset
// CX of SI = zr and DI = zi; a butterfly's b at CX of R12 and R13, a pair's
// partner at DX of SI and DI. Lengths
// come from the slice that says how many points there are; the others are
// trusted to be as long as convolve makes them.

// SUMDIFF sets s = x + y and d = x − y.
#define SUMDIFF(x, y, s, d) \
	VADDPD y, x, s; \
	VSUBPD y, x, d

// TWIDDLE is twiddleLanes on one vector: b = a·w, w = c + i·s.
#define TWIDDLE(c, s, ar, ai, br, bi) \
	VMOVUPD (SI)(CX*1), ar;  \
	VMOVUPD (DI)(CX*1), ai;  \
	VMULPD  c, ar, br;       \ // ar·c
	VMULPD  s, ai, bi;       \ // ai·s
	VSUBPD  bi, br, br;      \ // ar·c − ai·s
	VMULPD  s, ar, ar;       \ // ar·s
	VMULPD  c, ai, ai;       \ // ai·c
	VADDPD  ai, ar, bi;      \ // ar·s + ai·c
	VMOVUPD br, (R12)(CX*1); \
	VMOVUPD bi, (R13)(CX*1)

// UNTWIDDLE is untwiddleLanes on one vector: a += conj(w)·b.
#define UNTWIDDLE(c, s, ar, ai, br, bi) \
	VMOVUPD (R12)(CX*1), br;      \
	VMOVUPD (R13)(CX*1), bi;      \
	VMULPD  c, br, ar;            \ // br·c
	VMULPD  s, bi, ai;            \ // bi·s
	VADDPD  ai, ar, ar;           \ // br·c + bi·s
	VMULPD  c, bi, bi;            \ // bi·c
	VMULPD  s, br, br;            \ // br·s
	VSUBPD  br, bi, bi;           \ // bi·c − br·s
	VADDPD  (SI)(CX*1), ar, ar;   \
	VADDPD  (DI)(CX*1), bi, bi;   \
	VMOVUPD ar, (SI)(CX*1);       \
	VMOVUPD bi, (DI)(CX*1)

// DIFB is one butterfly of difStagesLanes on registers: a' = a + b,
// b' = (a − b)·w.
#define DIFB(c, s, ar, ai, br, bi, tr, ti) \
	VSUBPD br, ar, tr;  \ // tr = ar − br
	VSUBPD bi, ai, ti;  \ // ti = ai − bi
	VADDPD br, ar, ar;  \ // ar + br
	VADDPD bi, ai, ai;  \ // ai + bi
	VMULPD c, tr, br;   \ // tr·c
	VMULPD s, ti, bi;   \ // ti·s
	VSUBPD bi, br, br;  \ // tr·c − ti·s
	VMULPD s, tr, tr;   \ // tr·s
	VMULPD c, ti, ti;   \ // ti·c
	VADDPD ti, tr, bi     // tr·s + ti·c

// DITB is one butterfly of ditStagesLanes on registers: t = conj(w)·b,
// a' = a + t, b' = a − t.
#define DITB(c, s, ar, ai, br, bi, tr, ti) \
	VMULPD c, br, tr;   \ // br·c
	VMULPD s, bi, ti;   \ // bi·s
	VADDPD ti, tr, tr;  \ // tr = br·c + bi·s
	VMULPD c, bi, ti;   \ // bi·c
	VMULPD s, br, br;   \ // br·s
	VSUBPD br, ti, ti;  \ // ti = bi·c − br·s
	VSUBPD tr, ar, br;  \ // ar − tr
	VSUBPD ti, ai, bi;  \ // ai − ti
	VADDPD tr, ar, ar;  \ // ar + tr
	VADDPD ti, ai, ai     // ai + ti

// LOAD2 and STORE2 move a stage's butterfly: a at CX of SI and DI, b at CX
// of R12 and R13.
#define LOAD2(ar, ai, br, bi) \
	VMOVUPD (SI)(CX*1), ar;  \
	VMOVUPD (DI)(CX*1), ai;  \
	VMOVUPD (R12)(CX*1), br; \
	VMOVUPD (R13)(CX*1), bi

#define STORE2(ar, ai, br, bi) \
	VMOVUPD ar, (SI)(CX*1);  \
	VMOVUPD ai, (DI)(CX*1);  \
	VMOVUPD br, (R12)(CX*1); \
	VMOVUPD bi, (R13)(CX*1)

// LOAD4 and STORE4 move the four points of a radix-4 group, 64 bytes
// apart.
#define LOAD4(r0, r1, r2, r3, i0, i1, i2, i3) \
	VMOVUPD (SI)(CX*1), r0;    \
	VMOVUPD 64(SI)(CX*1), r1;  \
	VMOVUPD 128(SI)(CX*1), r2; \
	VMOVUPD 192(SI)(CX*1), r3; \
	VMOVUPD (DI)(CX*1), i0;    \
	VMOVUPD 64(DI)(CX*1), i1;  \
	VMOVUPD 128(DI)(CX*1), i2; \
	VMOVUPD 192(DI)(CX*1), i3

#define STORE4(r0, r1, r2, r3, i0, i1, i2, i3) \
	VMOVUPD r0, (SI)(CX*1);    \
	VMOVUPD r1, 64(SI)(CX*1);  \
	VMOVUPD r2, 128(SI)(CX*1); \
	VMOVUPD r3, 192(SI)(CX*1); \
	VMOVUPD i0, (DI)(CX*1);    \
	VMOVUPD i1, 64(DI)(CX*1);  \
	VMOVUPD i2, 128(DI)(CX*1); \
	VMOVUPD i3, 192(DI)(CX*1)

// DIFR4 is one group of difRadix4Lanes, the y's in the last eight
// registers. A sum may be taken either way round (y1r is r3 + r1), a
// difference only as the Go loop takes it.
#define DIFR4(r0, r1, r2, r3, i0, i1, i2, i3, y0r, y1r, y2r, y3r, y0i, y1i, y2i, y3i) \
	LOAD4(r0, r1, r2, r3, i0, i1, i2, i3);  \
	SUMDIFF(r0, r2, y0r, y2r);              \
	SUMDIFF(i0, i2, y0i, y2i);              \
	SUMDIFF(r3, r1, y1r, y3i);              \ // y3i = r3 − r1
	SUMDIFF(i1, i3, y1i, y3r);              \ // y3r = i1 − i3
	SUMDIFF(y0r, y1r, r0, r1);              \
	SUMDIFF(y0i, y1i, i0, i1);              \
	SUMDIFF(y2r, y3r, r2, r3);              \
	SUMDIFF(y2i, y3i, i2, i3);              \
	STORE4(r0, r1, r2, r3, i0, i1, i2, i3)

// DITR4 is one group of ditRadix4Lanes (y2i is i3 + i2).
#define DITR4(r0, r1, r2, r3, i0, i1, i2, i3, y0r, y1r, y2r, y3r, y0i, y1i, y2i, y3i) \
	LOAD4(r0, r1, r2, r3, i0, i1, i2, i3);  \
	SUMDIFF(r0, r1, y0r, y1r);              \
	SUMDIFF(i0, i1, y0i, y1i);              \
	SUMDIFF(r2, r3, y2r, y3i);              \ // y3i = r2 − r3
	SUMDIFF(i3, i2, y2i, y3r);              \ // y3r = i3 − i2
	SUMDIFF(y0r, y2r, r0, r2);              \
	SUMDIFF(y0i, y2i, i0, i2);              \
	SUMDIFF(y1r, y3r, r1, r3);              \
	SUMDIFF(y1i, y3i, i1, i3);              \
	STORE4(r0, r1, r2, r3, i0, i1, i2, i3)

// PAIR is one pair of pairBlocksLanes: the lower bin A at CX, its partner
// C at DX, α, β, γ in pa, pb, pg.
#define PAIR(pa, pb, pg, ar, ai, cr, ci, t0, t1, t2) \
	VMOVUPD (SI)(CX*1), ar; \
	VMOVUPD (DI)(CX*1), ai; \
	VMOVUPD (SI)(DX*1), cr; \
	VMOVUPD (DI)(DX*1), ci; \
	VMULPD  pa, ar, t0;     \ // α·ar
	VMULPD  pg, ci, t1;     \ // γ·ci
	VADDPD  t1, t0, t0;     \ // α·ar + γ·ci
	VMULPD  pa, ai, t1;     \ // α·ai
	VMULPD  pg, cr, t2;     \ // γ·cr
	VADDPD  t2, t1, t1;     \ // α·ai + γ·cr
	VMULPD  pb, cr, cr;     \ // β·cr
	VMULPD  pg, ai, ai;     \ // γ·ai
	VADDPD  ai, cr, cr;     \ // β·cr + γ·ai
	VMULPD  pb, ci, ci;     \ // β·ci
	VMULPD  pg, ar, ar;     \ // γ·ar
	VADDPD  ar, ci, ci;     \ // β·ci + γ·ar
	VMOVUPD t0, (SI)(CX*1); \
	VMOVUPD t1, (DI)(CX*1); \
	VMOVUPD cr, (SI)(DX*1); \
	VMOVUPD ci, (DI)(DX*1)

// The pruned end stages: one twiddle per point, a and b each contiguous.
//   SI = ar   DI = ai   R12 = br   R13 = bi   R8 = cos   R9 = sin
//   DX = points   AX = j   CX = 64j

// func twiddle512(ar, ai, br, bi, cos, sin []float64)
TEXT ·twiddle512(SB), NOSPLIT, $0-144
	MOVQ ar_base+0(FP), SI
	MOVQ ai_base+24(FP), DI
	MOVQ br_base+48(FP), R12
	MOVQ bi_base+72(FP), R13
	MOVQ cos_base+96(FP), R8
	MOVQ sin_base+120(FP), R9
	MOVQ cos_len+104(FP), DX
	XORQ AX, AX
	XORQ CX, CX

twiddle512Loop:
	CMPQ         AX, DX
	JGE          twiddle512Done
	VBROADCASTSD (R8)(AX*8), Z8
	VBROADCASTSD (R9)(AX*8), Z9
	TWIDDLE(Z8, Z9, Z0, Z1, Z2, Z3)
	ADDQ         $64, CX
	INCQ         AX
	JMP          twiddle512Loop

twiddle512Done:
	VZEROUPPER
	RET

// func twiddle256(ar, ai, br, bi, cos, sin []float64)
TEXT ·twiddle256(SB), NOSPLIT, $0-144
	MOVQ ar_base+0(FP), SI
	MOVQ ai_base+24(FP), DI
	MOVQ br_base+48(FP), R12
	MOVQ bi_base+72(FP), R13
	MOVQ cos_base+96(FP), R8
	MOVQ sin_base+120(FP), R9
	MOVQ cos_len+104(FP), DX
	XORQ AX, AX
	XORQ CX, CX

twiddle256Loop:
	CMPQ         AX, DX
	JGE          twiddle256Done
	VBROADCASTSD (R8)(AX*8), Y8
	VBROADCASTSD (R9)(AX*8), Y9
	TWIDDLE(Y8, Y9, Y0, Y1, Y2, Y3)
	ADDQ         $32, CX
	TWIDDLE(Y8, Y9, Y4, Y5, Y6, Y7)
	ADDQ         $32, CX
	INCQ         AX
	JMP          twiddle256Loop

twiddle256Done:
	VZEROUPPER
	RET

// func untwiddle512(ar, ai, br, bi, cos, sin []float64)
TEXT ·untwiddle512(SB), NOSPLIT, $0-144
	MOVQ ar_base+0(FP), SI
	MOVQ ai_base+24(FP), DI
	MOVQ br_base+48(FP), R12
	MOVQ bi_base+72(FP), R13
	MOVQ cos_base+96(FP), R8
	MOVQ sin_base+120(FP), R9
	MOVQ cos_len+104(FP), DX
	XORQ AX, AX
	XORQ CX, CX

untwiddle512Loop:
	CMPQ         AX, DX
	JGE          untwiddle512Done
	VBROADCASTSD (R8)(AX*8), Z8
	VBROADCASTSD (R9)(AX*8), Z9
	UNTWIDDLE(Z8, Z9, Z0, Z1, Z2, Z3)
	ADDQ         $64, CX
	INCQ         AX
	JMP          untwiddle512Loop

untwiddle512Done:
	VZEROUPPER
	RET

// func untwiddle256(ar, ai, br, bi, cos, sin []float64)
TEXT ·untwiddle256(SB), NOSPLIT, $0-144
	MOVQ ar_base+0(FP), SI
	MOVQ ai_base+24(FP), DI
	MOVQ br_base+48(FP), R12
	MOVQ bi_base+72(FP), R13
	MOVQ cos_base+96(FP), R8
	MOVQ sin_base+120(FP), R9
	MOVQ cos_len+104(FP), DX
	XORQ AX, AX
	XORQ CX, CX

untwiddle256Loop:
	CMPQ         AX, DX
	JGE          untwiddle256Done
	VBROADCASTSD (R8)(AX*8), Y8
	VBROADCASTSD (R9)(AX*8), Y9
	UNTWIDDLE(Y8, Y9, Y0, Y1, Y2, Y3)
	ADDQ         $32, CX
	UNTWIDDLE(Y8, Y9, Y4, Y5, Y6, Y7)
	ADDQ         $32, CX
	INCQ         AX
	JMP          untwiddle256Loop

untwiddle256Done:
	VZEROUPPER
	RET

// One middle stage of span h, block by block, a at CX and b = a + 64h.
//   SI = zr   DI = zi   R8 = cos   R9 = sin   R10 = 64m (end of the points)
//   BX = h   R11 = 64h   R12 = zr + 64h   R13 = zi + 64h
//   DX = twiddle index h−1+j   R14 = 2h−1 (its end)   CX = a's byte offset

#define STAGE \
	SHLQ $3, R10;            \
	MOVQ BX, R11;            \
	SHLQ $6, R11;            \
	LEAQ (SI)(R11*1), R12;   \
	LEAQ (DI)(R11*1), R13;   \
	LEAQ -1(BX)(BX*1), R14;  \
	XORQ CX, CX

// func difStage512(zr, zi, cos, sin []float64, h int)
TEXT ·difStage512(SB), NOSPLIT, $0-104
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	MOVQ zr_len+8(FP), R10
	MOVQ h+96(FP), BX
	STAGE

difBlock512:
	LEAQ -1(BX), DX

difLoop512:
	VBROADCASTSD (R8)(DX*8), Z8
	VBROADCASTSD (R9)(DX*8), Z9
	LOAD2(Z0, Z1, Z2, Z3)
	DIFB(Z8, Z9, Z0, Z1, Z2, Z3, Z4, Z5)
	STORE2(Z0, Z1, Z2, Z3)
	ADDQ         $64, CX
	INCQ         DX
	CMPQ         DX, R14
	JLT          difLoop512
	ADDQ         R11, CX
	CMPQ         CX, R10
	JLT          difBlock512
	VZEROUPPER
	RET

// func difStage256(zr, zi, cos, sin []float64, h int)
TEXT ·difStage256(SB), NOSPLIT, $0-104
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	MOVQ zr_len+8(FP), R10
	MOVQ h+96(FP), BX
	STAGE

difBlock256:
	LEAQ -1(BX), DX

difLoop256:
	VBROADCASTSD (R8)(DX*8), Y8
	VBROADCASTSD (R9)(DX*8), Y9
	LOAD2(Y0, Y1, Y2, Y3)
	DIFB(Y8, Y9, Y0, Y1, Y2, Y3, Y4, Y5)
	STORE2(Y0, Y1, Y2, Y3)
	ADDQ         $32, CX
	LOAD2(Y0, Y1, Y2, Y3)
	DIFB(Y8, Y9, Y0, Y1, Y2, Y3, Y4, Y5)
	STORE2(Y0, Y1, Y2, Y3)
	ADDQ         $32, CX
	INCQ         DX
	CMPQ         DX, R14
	JLT          difLoop256
	ADDQ         R11, CX
	CMPQ         CX, R10
	JLT          difBlock256
	VZEROUPPER
	RET

// func ditStage512(zr, zi, cos, sin []float64, h int)
TEXT ·ditStage512(SB), NOSPLIT, $0-104
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	MOVQ zr_len+8(FP), R10
	MOVQ h+96(FP), BX
	STAGE

ditBlock512:
	LEAQ -1(BX), DX

ditLoop512:
	VBROADCASTSD (R8)(DX*8), Z8
	VBROADCASTSD (R9)(DX*8), Z9
	LOAD2(Z0, Z1, Z2, Z3)
	DITB(Z8, Z9, Z0, Z1, Z2, Z3, Z4, Z5)
	STORE2(Z0, Z1, Z2, Z3)
	ADDQ         $64, CX
	INCQ         DX
	CMPQ         DX, R14
	JLT          ditLoop512
	ADDQ         R11, CX
	CMPQ         CX, R10
	JLT          ditBlock512
	VZEROUPPER
	RET

// func ditStage256(zr, zi, cos, sin []float64, h int)
TEXT ·ditStage256(SB), NOSPLIT, $0-104
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	MOVQ zr_len+8(FP), R10
	MOVQ h+96(FP), BX
	STAGE

ditBlock256:
	LEAQ -1(BX), DX

ditLoop256:
	VBROADCASTSD (R8)(DX*8), Y8
	VBROADCASTSD (R9)(DX*8), Y9
	LOAD2(Y0, Y1, Y2, Y3)
	DITB(Y8, Y9, Y0, Y1, Y2, Y3, Y4, Y5)
	STORE2(Y0, Y1, Y2, Y3)
	ADDQ         $32, CX
	LOAD2(Y0, Y1, Y2, Y3)
	DITB(Y8, Y9, Y0, Y1, Y2, Y3, Y4, Y5)
	STORE2(Y0, Y1, Y2, Y3)
	ADDQ         $32, CX
	INCQ         DX
	CMPQ         DX, R14
	JLT          ditLoop256
	ADDQ         R11, CX
	CMPQ         CX, R10
	JLT          ditBlock256
	VZEROUPPER
	RET

// The radix-4 ends: one group of four points per step.
//   SI = zr   DI = zi   DX = 64m   CX = the group's byte offset

// func difRadix4512(zr, zi []float64)
TEXT ·difRadix4512(SB), NOSPLIT, $0-48
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ zr_len+8(FP), DX
	SHLQ $3, DX
	XORQ CX, CX

difRadix4512Loop:
	DIFR4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $256, CX
	CMPQ CX, DX
	JLT  difRadix4512Loop
	VZEROUPPER
	RET

// func difRadix4256(zr, zi []float64)
TEXT ·difRadix4256(SB), NOSPLIT, $0-48
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ zr_len+8(FP), DX
	SHLQ $3, DX
	XORQ CX, CX

difRadix4256Loop:
	DIFR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $32, CX
	DIFR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $224, CX
	CMPQ CX, DX
	JLT  difRadix4256Loop
	VZEROUPPER
	RET

// func ditRadix4512(zr, zi []float64)
TEXT ·ditRadix4512(SB), NOSPLIT, $0-48
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ zr_len+8(FP), DX
	SHLQ $3, DX
	XORQ CX, CX

ditRadix4512Loop:
	DITR4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $256, CX
	CMPQ CX, DX
	JLT  ditRadix4512Loop
	VZEROUPPER
	RET

// func ditRadix4256(zr, zi []float64)
TEXT ·ditRadix4256(SB), NOSPLIT, $0-48
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ zr_len+8(FP), DX
	SHLQ $3, DX
	XORQ CX, CX

ditRadix4256Loop:
	DITR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $32, CX
	DITR4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $224, CX
	CMPQ CX, DX
	JLT  ditRadix4256Loop
	VZEROUPPER
	RET

// The pair pass over the blocks [b, 2b), b = 2 .. m/2: the lower half
// ascending at CX against the upper half descending at DX.
//   SI = zr   DI = zi   R8 = pa   R9 = pb   R10 = pg   R11 = m
//   BX = b   AX = the pair's constant index b/2 + j

#define PAIRBLOCK \
	MOVQ BX, AX;             \
	SHRQ $1, AX;             \
	MOVQ BX, CX;             \
	SHLQ $6, CX;             \
	LEAQ -1(BX)(BX*1), DX;   \
	SHLQ $6, DX

// func pairBlocks512(zr, zi, pa, pb, pg []float64)
TEXT ·pairBlocks512(SB), NOSPLIT, $0-120
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ pa_base+48(FP), R8
	MOVQ pb_base+72(FP), R9
	MOVQ pg_base+96(FP), R10
	MOVQ zr_len+8(FP), R11
	SHRQ $3, R11
	MOVQ $2, BX

pairBlock512:
	CMPQ BX, R11
	JGE  pairBlocks512Done
	PAIRBLOCK

pairLoop512:
	VBROADCASTSD (R8)(AX*8), Z8
	VBROADCASTSD (R9)(AX*8), Z9
	VBROADCASTSD (R10)(AX*8), Z10
	PAIR(Z8, Z9, Z10, Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	ADDQ         $64, CX
	SUBQ         $64, DX
	INCQ         AX
	CMPQ         AX, BX
	JLT          pairLoop512
	SHLQ         $1, BX
	JMP          pairBlock512

pairBlocks512Done:
	VZEROUPPER
	RET

// func pairBlocks256(zr, zi, pa, pb, pg []float64)
TEXT ·pairBlocks256(SB), NOSPLIT, $0-120
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ pa_base+48(FP), R8
	MOVQ pb_base+72(FP), R9
	MOVQ pg_base+96(FP), R10
	MOVQ zr_len+8(FP), R11
	SHRQ $3, R11
	MOVQ $2, BX

pairBlock256:
	CMPQ BX, R11
	JGE  pairBlocks256Done
	PAIRBLOCK

pairLoop256:
	VBROADCASTSD (R8)(AX*8), Y8
	VBROADCASTSD (R9)(AX*8), Y9
	VBROADCASTSD (R10)(AX*8), Y10
	PAIR(Y8, Y9, Y10, Y0, Y1, Y2, Y3, Y4, Y5, Y6)
	ADDQ         $32, CX
	ADDQ         $32, DX
	PAIR(Y8, Y9, Y10, Y0, Y1, Y2, Y3, Y4, Y5, Y6)
	ADDQ         $32, CX
	SUBQ         $96, DX
	INCQ         AX
	CMPQ         AX, BX
	JLT          pairLoop256
	SHLQ         $1, BX
	JMP          pairBlock256

pairBlocks256Done:
	VZEROUPPER
	RET
