//go:build amd64

#include "textflag.h"

// AVX2 pack and unpack of one detector row (see pack.go): eight samples per
// step. VMULPS, VCVTPS2PD and VCVTPD2PS round lane by lane as the scalar
// MULSS, CVTSS2SD and CVTSD2SS of the Go loops do, so a sample has the same
// bits whichever packs it. Only whole groups are taken: nothing beyond the n
// samples or the n/2 points is read or written.

// func packAVX2(zr, zi *float64, src, w *float32, n int)
TEXT ·packAVX2(SB), NOSPLIT, $0-40
	MOVQ zr+0(FP), SI
	MOVQ zi+8(FP), DI
	MOVQ src+16(FP), R8
	MOVQ w+24(FP), R10
	MOVQ n+32(FP), CX
	XORQ AX, AX             // sample
	XORQ BX, BX             // point

packLoop:
	VMOVUPS      (R8)(AX*4), Y0
	VMULPS       (R10)(AX*4), Y0, Y0
	VPERMILPS    $0xD8, Y0, Y0  // x0 x2 x1 x3 | x4 x6 x5 x7
	VPERMPD      $0xD8, Y0, Y0  // x0 x2 x4 x6 | x1 x3 x5 x7
	VEXTRACTF128 $1, Y0, X1
	VCVTPS2PD    X0, Y2         // even samples
	VCVTPS2PD    X1, Y3         // odd samples
	VMOVUPD      Y2, (SI)(BX*8)
	VMOVUPD      Y3, (DI)(BX*8)
	ADDQ         $4, BX
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          packLoop
	VZEROUPPER
	RET

// func unpackAVX2(dst *float32, zr, zi *float64, n int)
TEXT ·unpackAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), R8
	MOVQ zr+8(FP), SI
	MOVQ zi+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	XORQ BX, BX

unpackLoop:
	VMOVUPD    (SI)(BX*8), Y0
	VMOVUPD    (DI)(BX*8), Y1
	VCVTPD2PSY Y0, X2           // e0 e1 e2 e3
	VCVTPD2PSY Y1, X3           // o0 o1 o2 o3
	VUNPCKLPS  X3, X2, X4       // e0 o0 e1 o1
	VUNPCKHPS  X3, X2, X5       // e2 o2 e3 o3
	VMOVUPS    X4, (R8)(AX*4)
	VMOVUPS    X5, 16(R8)(AX*4)
	ADDQ       $4, BX
	ADDQ       $8, AX
	CMPQ       AX, CX
	JLT        unpackLoop
	VZEROUPPER
	RET
