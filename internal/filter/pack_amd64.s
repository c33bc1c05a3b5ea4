//go:build amd64

#include "textflag.h"

// AVX-512 pack and unpack of a batch of rows (see pack.go): one point of
// the eight lanes per step. Lane l gathers (or scatters) the pair of
// samples 2j, 2j+1 of its own row as one quadword at its row's byte offset;
// lanes outside the batch's mask are neither read nor written. VMULPS,
// VCVTPS2PD and VCVTPD2PS round lane by lane as the scalar MULSS, CVTSS2SD
// and CVTSD2SS of the Go loops do, so a sample has the same bits whichever
// packs it. Only whole pairs are taken: nothing beyond a row's 2·pairs
// samples or the workspace's pairs points is touched.
//   K2 = the batch's lanes   Z30 = the rows' byte offsets   CX = points left

// func pack512(zr, zi *float64, src, w *float32, off, woff *[8]int64, rows, pairs int)
TEXT ·pack512(SB), NOSPLIT, $0-64
	MOVQ      zr+0(FP), DI
	MOVQ      zi+8(FP), R9
	MOVQ      src+16(FP), SI
	MOVQ      w+24(FP), R8
	MOVQ      off+32(FP), AX
	VMOVDQU64 (AX), Z30
	MOVQ      woff+40(FP), AX
	VMOVDQU64 (AX), Z31        // the weight rows' byte offsets
	MOVQ      rows+48(FP), CX
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVB     AX, K2
	MOVQ      pairs+56(FP), CX

packLoop:
	VPXORQ     Z0, Z0, Z0
	KMOVB      K2, K1
	VPGATHERQQ (SI)(Z30*1), K1, Z0 // lane l: samples 2j, 2j+1 of row l
	VPXORQ     Z1, Z1, Z1
	KMOVB      K2, K1
	VPGATHERQQ (R8)(Z31*1), K1, Z1 // and their weights
	VMULPS     Z1, Z0, Z0
	VPMOVQD    Z0, Y2              // the even samples
	VPSRLQ     $32, Z0, Z0
	VPMOVQD    Z0, Y3              // the odd samples
	VCVTPS2PD  Y2, Z2
	VCVTPS2PD  Y3, Z3
	VMOVUPD    Z2, (DI)
	VMOVUPD    Z3, (R9)
	ADDQ       $8, SI
	ADDQ       $8, R8
	ADDQ       $64, DI
	ADDQ       $64, R9
	DECQ       CX
	JNZ        packLoop
	VZEROUPPER
	RET

// func unpack512(dst *float32, zr, zi *float64, off *[8]int64, rows, pairs int)
TEXT ·unpack512(SB), NOSPLIT, $0-48
	MOVQ      dst+0(FP), SI
	MOVQ      zr+8(FP), DI
	MOVQ      zi+16(FP), R9
	MOVQ      off+24(FP), AX
	VMOVDQU64 (AX), Z30
	MOVQ      rows+32(FP), CX
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVB     AX, K2
	MOVQ      pairs+40(FP), CX

unpackLoop:
	VMOVUPD     (DI), Z0
	VMOVUPD     (R9), Z1
	VCVTPD2PS   Z0, Y0
	VCVTPD2PS   Z1, Y1
	VPMOVZXDQ   Y0, Z0
	VPMOVZXDQ   Y1, Z1
	VPSLLQ      $32, Z1, Z1
	VPORQ       Z1, Z0, Z0             // lane l: samples 2j, 2j+1 of row l
	KMOVB       K2, K1
	VPSCATTERQQ Z0, K1, (SI)(Z30*1)
	ADDQ        $8, SI
	ADDQ        $64, DI
	ADDQ        $64, R9
	DECQ        CX
	JNZ         unpackLoop
	VZEROUPPER
	RET
