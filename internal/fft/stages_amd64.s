//go:build amd64

#include "textflag.h"

// AVX2 butterflies of RealPlan's middle stages (see rfft.go): four
// consecutive points of one row per vector, separate VMULPD and
// VADDPD/VSUBPD in the order of the Go twins difStagesGo and ditStagesGo —
// no FMA — so both produce the same bits. Spans are at least 4, so a, b and
// the stage's twiddles are each four contiguous float64 and every stage is a
// whole number of vectors: nothing outside the m points is read or written.
//
// Register plan, both routines:
//   SI = zr   DI = zi   R8 = cos   R9 = sin   R10 = m/2 (butterflies per stage)
//   BX = span h   R11 = h−1 (twiddle offset and index mask)
//   R12 = zr + 8h   R13 = zi + 8h (the b halves)
//   AX = butterfly index i   CX = a = i + (i &^ (h−1))   DX = (h−1) + (i & (h−1))

// func difStagesAVX2(zr, zi, cos, sin []float64)
TEXT ·difStagesAVX2(SB), NOSPLIT, $0-96
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	MOVQ zr_len+8(FP), BX
	MOVQ BX, R10
	SHRQ $1, R10
	SHRQ $2, BX             // h = m/4

difStage:
	CMPQ BX, $4
	JLT  difDone
	LEAQ -1(BX), R11
	LEAQ (SI)(BX*8), R12
	LEAQ (DI)(BX*8), R13
	XORQ AX, AX

difLoop:
	MOVQ AX, DX
	ANDQ R11, DX            // j
	LEAQ (AX)(AX*1), CX
	SUBQ DX, CX             // a = 2i − j
	ADDQ R11, DX            // twiddle index
	VMOVUPD (SI)(CX*8), Y0  // ar
	VMOVUPD (DI)(CX*8), Y1  // ai
	VMOVUPD (R12)(CX*8), Y2 // br
	VMOVUPD (R13)(CX*8), Y3 // bi
	VMOVUPD (R8)(DX*8), Y8  // c
	VMOVUPD (R9)(DX*8), Y9  // s
	VSUBPD  Y2, Y0, Y6      // tr = ar − br
	VSUBPD  Y3, Y1, Y7      // ti = ai − bi
	VADDPD  Y2, Y0, Y4      // ar + br
	VADDPD  Y3, Y1, Y5      // ai + bi
	VMOVUPD Y4, (SI)(CX*8)
	VMOVUPD Y5, (DI)(CX*8)
	VMULPD  Y8, Y6, Y10     // tr·c
	VMULPD  Y9, Y7, Y11     // ti·s
	VMULPD  Y9, Y6, Y12     // tr·s
	VMULPD  Y8, Y7, Y13     // ti·c
	VSUBPD  Y11, Y10, Y10   // tr·c − ti·s
	VADDPD  Y13, Y12, Y12   // tr·s + ti·c
	VMOVUPD Y10, (R12)(CX*8)
	VMOVUPD Y12, (R13)(CX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     difLoop
	SHRQ    $1, BX
	JMP     difStage

difDone:
	VZEROUPPER
	RET

// func ditStagesAVX2(zr, zi, cos, sin []float64)
TEXT ·ditStagesAVX2(SB), NOSPLIT, $0-96
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	MOVQ zr_len+8(FP), R10
	SHRQ $1, R10
	MOVQ $4, BX             // h = 4

ditStage:
	CMPQ BX, R10            // h ≤ m/4  ⇔  h < m/2
	JGE  ditDone
	LEAQ -1(BX), R11
	LEAQ (SI)(BX*8), R12
	LEAQ (DI)(BX*8), R13
	XORQ AX, AX

ditLoop:
	MOVQ AX, DX
	ANDQ R11, DX
	LEAQ (AX)(AX*1), CX
	SUBQ DX, CX
	ADDQ R11, DX
	VMOVUPD (R12)(CX*8), Y2 // br
	VMOVUPD (R13)(CX*8), Y3 // bi
	VMOVUPD (R8)(DX*8), Y8  // c
	VMOVUPD (R9)(DX*8), Y9  // s
	VMOVUPD (SI)(CX*8), Y0  // ar
	VMOVUPD (DI)(CX*8), Y1  // ai
	VMULPD  Y8, Y2, Y10     // br·c
	VMULPD  Y9, Y3, Y11     // bi·s
	VMULPD  Y8, Y3, Y12     // bi·c
	VMULPD  Y9, Y2, Y13     // br·s
	VADDPD  Y11, Y10, Y10   // tr = br·c + bi·s
	VSUBPD  Y13, Y12, Y12   // ti = bi·c − br·s
	VSUBPD  Y10, Y0, Y4     // ar − tr
	VSUBPD  Y12, Y1, Y5     // ai − ti
	VADDPD  Y10, Y0, Y6     // ar + tr
	VADDPD  Y12, Y1, Y7     // ai + ti
	VMOVUPD Y4, (R12)(CX*8)
	VMOVUPD Y5, (R13)(CX*8)
	VMOVUPD Y6, (SI)(CX*8)
	VMOVUPD Y7, (DI)(CX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     ditLoop
	SHLQ    $1, BX
	JMP     ditStage

ditDone:
	VZEROUPPER
	RET

// The pruned end stages: n points (a multiple of 4) of one span, a, b and
// the twiddles each contiguous.
//   SI = ar   DI = ai   R12 = br   R13 = bi   R8 = cos   R9 = sin
//   CX = n    AX = j

// func twiddleAVX2(ar, ai, br, bi, cos, sin []float64)
TEXT ·twiddleAVX2(SB), NOSPLIT, $0-144
	MOVQ ar_base+0(FP), SI
	MOVQ ai_base+24(FP), DI
	MOVQ br_base+48(FP), R12
	MOVQ bi_base+72(FP), R13
	MOVQ cos_base+96(FP), R8
	MOVQ sin_base+120(FP), R9
	MOVQ ar_len+8(FP), CX
	XORQ AX, AX

twiddleLoop:
	CMPQ AX, CX
	JGE  twiddleDone
	VMOVUPD (SI)(AX*8), Y0  // ar
	VMOVUPD (DI)(AX*8), Y1  // ai
	VMOVUPD (R8)(AX*8), Y8  // c
	VMOVUPD (R9)(AX*8), Y9  // s
	VMULPD  Y8, Y0, Y10     // ar·c
	VMULPD  Y9, Y1, Y11     // ai·s
	VMULPD  Y9, Y0, Y12     // ar·s
	VMULPD  Y8, Y1, Y13     // ai·c
	VSUBPD  Y11, Y10, Y10   // ar·c − ai·s
	VADDPD  Y13, Y12, Y12   // ar·s + ai·c
	VMOVUPD Y10, (R12)(AX*8)
	VMOVUPD Y12, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     twiddleLoop

twiddleDone:
	VZEROUPPER
	RET

// func untwiddleAVX2(ar, ai, br, bi, cos, sin []float64)
TEXT ·untwiddleAVX2(SB), NOSPLIT, $0-144
	MOVQ ar_base+0(FP), SI
	MOVQ ai_base+24(FP), DI
	MOVQ br_base+48(FP), R12
	MOVQ bi_base+72(FP), R13
	MOVQ cos_base+96(FP), R8
	MOVQ sin_base+120(FP), R9
	MOVQ ar_len+8(FP), CX
	XORQ AX, AX

untwiddleLoop:
	CMPQ AX, CX
	JGE  untwiddleDone
	VMOVUPD (R12)(AX*8), Y2 // br
	VMOVUPD (R13)(AX*8), Y3 // bi
	VMOVUPD (R8)(AX*8), Y8  // c
	VMOVUPD (R9)(AX*8), Y9  // s
	VMULPD  Y8, Y2, Y10     // br·c
	VMULPD  Y9, Y3, Y11     // bi·s
	VMULPD  Y8, Y3, Y12     // bi·c
	VMULPD  Y9, Y2, Y13     // br·s
	VADDPD  Y11, Y10, Y10   // br·c + bi·s
	VSUBPD  Y13, Y12, Y12   // bi·c − br·s
	VADDPD  (SI)(AX*8), Y10, Y10
	VADDPD  (DI)(AX*8), Y12, Y12
	VMOVUPD Y10, (SI)(AX*8)
	VMOVUPD Y12, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     untwiddleLoop

untwiddleDone:
	VZEROUPPER
	RET

// The pair pass over the blocks [b, 2b), b = 8 .. m/2: four pairs per
// vector, the lower half of a block ascending against its upper half
// descending, which VPERMPD $0x1B turns to face it.
//   SI = zr   DI = zi   R8 = pa   R9 = pb   R10 = pg   R11 = m
//   BX = b    CX = b/2 (pairs in the block, and its first constant)
//   AX = j    DX = lower position b + j    R12 = upper position 2b − 4 − j
//   R13 = constant index b/2 + j

// func pairBlocksAVX2(zr, zi, pa, pb, pg []float64)
TEXT ·pairBlocksAVX2(SB), NOSPLIT, $0-120
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ pa_base+48(FP), R8
	MOVQ pb_base+72(FP), R9
	MOVQ pg_base+96(FP), R10
	MOVQ zr_len+8(FP), R11
	MOVQ $8, BX

pairBlock:
	CMPQ BX, R11
	JGE  pairDone
	MOVQ BX, CX
	SHRQ $1, CX
	XORQ AX, AX

pairLoop:
	LEAQ (BX)(AX*1), DX
	LEAQ -4(BX)(BX*1), R12
	SUBQ AX, R12
	LEAQ (CX)(AX*1), R13
	VMOVUPD (SI)(DX*8), Y0       // ar
	VMOVUPD (DI)(DX*8), Y1       // ai
	VPERMPD $0x1B, (SI)(R12*8), Y2 // cr
	VPERMPD $0x1B, (DI)(R12*8), Y3 // ci
	VMOVUPD (R8)(R13*8), Y8      // α
	VMOVUPD (R9)(R13*8), Y9      // β
	VMOVUPD (R10)(R13*8), Y10    // γ
	VMULPD  Y8, Y0, Y4           // α·ar
	VMULPD  Y10, Y3, Y5          // γ·ci
	VMULPD  Y8, Y1, Y6           // α·ai
	VMULPD  Y10, Y2, Y7          // γ·cr
	VADDPD  Y5, Y4, Y4           // α·ar + γ·ci
	VADDPD  Y7, Y6, Y6           // α·ai + γ·cr
	VMULPD  Y9, Y2, Y11          // β·cr
	VMULPD  Y10, Y1, Y12         // γ·ai
	VMULPD  Y9, Y3, Y13          // β·ci
	VMULPD  Y10, Y0, Y14         // γ·ar
	VADDPD  Y12, Y11, Y11        // β·cr + γ·ai
	VADDPD  Y14, Y13, Y13        // β·ci + γ·ar
	VMOVUPD Y4, (SI)(DX*8)
	VMOVUPD Y6, (DI)(DX*8)
	VPERMPD $0x1B, Y11, Y11
	VPERMPD $0x1B, Y13, Y13
	VMOVUPD Y11, (SI)(R12*8)
	VMOVUPD Y13, (DI)(R12*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     pairLoop
	SHLQ    $1, BX
	JMP     pairBlock

pairDone:
	VZEROUPPER
	RET

// The radix-4 ends: one group of four consecutive points per vector, the
// two butterflies of each span facing each other through a half swap
// (VPERM2F128 $0x01, span 2) or a pair swap (VPERMILPD $5, span 1). A sum
// is taken where either order gives it; a difference is taken in the order
// of the Go twin, in the lane that keeps it.
//   SI = zr   DI = zi   CX = m   AX = group base

// func difRadix4AVX2(zr, zi []float64)
TEXT ·difRadix4AVX2(SB), NOSPLIT, $0-48
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ zr_len+8(FP), CX
	XORQ AX, AX

difRadix4Loop:
	CMPQ AX, CX
	JGE  difRadix4Done
	VMOVUPD    (SI)(AX*8), Y0       // r0 r1 r2 r3
	VMOVUPD    (DI)(AX*8), Y1       // i0 i1 i2 i3
	VPERM2F128 $0x01, Y0, Y0, Y2    // r2 r3 r0 r1
	VPERM2F128 $0x01, Y1, Y1, Y3    // i2 i3 i0 i1
	VADDPD     Y2, Y0, Y4           // y0r y1r · ·
	VADDPD     Y3, Y1, Y5           // y0i y1i · ·
	VSUBPD     Y0, Y2, Y6           // · · r0−r2 r1−r3
	VSUBPD     Y1, Y3, Y7           // · · i0−i2 i1−i3
	VSUBPD     Y2, Y0, Y8           // · · · r3−r1
	VBLENDPD   $4, Y6, Y4, Y4       // y2r
	VBLENDPD   $8, Y7, Y4, Y4       // y3r = i1−i3
	VBLENDPD   $4, Y7, Y5, Y5       // y2i
	VBLENDPD   $8, Y8, Y5, Y5       // y3i = r3−r1
	VPERMILPD  $5, Y4, Y2           // y1r y0r y3r y2r
	VPERMILPD  $5, Y5, Y3
	VADDPD     Y2, Y4, Y6           // y0+y1 · y2+y3 ·
	VADDPD     Y3, Y5, Y7
	VSUBPD     Y4, Y2, Y8           // · y0−y1 · y2−y3
	VSUBPD     Y5, Y3, Y9
	VBLENDPD   $10, Y8, Y6, Y6
	VBLENDPD   $10, Y9, Y7, Y7
	VMOVUPD    Y6, (SI)(AX*8)
	VMOVUPD    Y7, (DI)(AX*8)
	ADDQ       $4, AX
	JMP        difRadix4Loop

difRadix4Done:
	VZEROUPPER
	RET

// func ditRadix4AVX2(zr, zi []float64)
TEXT ·ditRadix4AVX2(SB), NOSPLIT, $0-48
	MOVQ zr_base+0(FP), SI
	MOVQ zi_base+24(FP), DI
	MOVQ zr_len+8(FP), CX
	XORQ AX, AX

ditRadix4Loop:
	CMPQ AX, CX
	JGE  ditRadix4Done
	VMOVUPD    (SI)(AX*8), Y0       // r0 r1 r2 r3
	VMOVUPD    (DI)(AX*8), Y1       // i0 i1 i2 i3
	VPERMILPD  $5, Y0, Y2           // r1 r0 r3 r2
	VPERMILPD  $5, Y1, Y3
	VADDPD     Y2, Y0, Y4           // y0r · y2r ·
	VADDPD     Y3, Y1, Y5           // y0i · y2i ·
	VSUBPD     Y0, Y2, Y6           // · r0−r1 · r2−r3
	VSUBPD     Y1, Y3, Y7           // · i0−i1 · ·
	VSUBPD     Y3, Y1, Y8           // · · · i3−i2
	VBLENDPD   $2, Y6, Y4, Y4       // y1r
	VBLENDPD   $8, Y8, Y4, Y4       // y3r = i3−i2
	VBLENDPD   $2, Y7, Y5, Y5       // y1i
	VBLENDPD   $8, Y6, Y5, Y5       // y3i = r2−r3
	VPERM2F128 $0x01, Y4, Y4, Y2    // y2r y3r y0r y1r
	VPERM2F128 $0x01, Y5, Y5, Y3
	VADDPD     Y2, Y4, Y6           // y0+y2 y1+y3 · ·
	VADDPD     Y3, Y5, Y7
	VSUBPD     Y4, Y2, Y8           // · · y0−y2 y1−y3
	VSUBPD     Y5, Y3, Y9
	VBLENDPD   $12, Y8, Y6, Y6
	VBLENDPD   $12, Y9, Y7, Y7
	VMOVUPD    Y6, (SI)(AX*8)
	VMOVUPD    Y7, (DI)(AX*8)
	ADDQ       $4, AX
	JMP        ditRadix4Loop

ditRadix4Done:
	VZEROUPPER
	RET
