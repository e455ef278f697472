#include "textflag.h"

// AVX2/FMA 6×8 micro-kernel. See DESIGN.md §11 for the ABI contract
// and register allocation.
//
// The kernel computes C[0:6, 0:8] += alpha · Ap·Bp on a row-major C
// with stride ldc, from packed micro-panels:
//
//	pa[l*6 + r] = A(r, l)   (k-major, one 6-row micro-panel)
//	pb[l*8 + s] = B(l, s)   (k-major, one 8-column micro-panel)
//
// The full 6×8 tile is always computed and written — edge masking is
// the Go wrapper's job (it redirects the write into a scratch tile).
// kc ≥ 1 is required (guaranteed: the packed driver never emits empty
// panels).
//
// Register allocation:
//
//	Y0..Y11   6×8 accumulator block, row r in Y(2r) | Y(2r+1)
//	Y12, Y13  one k-step of B (8 doubles)
//	Y14       broadcast of one A element; alpha at write-back
//	Y15       C row staging at write-back
//
// Per k-step: 2 B loads + 6 A broadcasts + 12 FMAs = 96 flops. All 16
// ymm registers are live — 6×8 is the widest spill-free f64 shape on
// AVX2.

// func kernel6x8F64(kc int64, pa, pb *float64, alpha float64, c *float64, ldc int64)
TEXT ·kernel6x8F64(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

loop64:
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VBROADCASTSD (SI), Y14
	VFMADD231PD Y12, Y14, Y0
	VFMADD231PD Y13, Y14, Y1
	VBROADCASTSD 8(SI), Y14
	VFMADD231PD Y12, Y14, Y2
	VFMADD231PD Y13, Y14, Y3
	VBROADCASTSD 16(SI), Y14
	VFMADD231PD Y12, Y14, Y4
	VFMADD231PD Y13, Y14, Y5
	VBROADCASTSD 24(SI), Y14
	VFMADD231PD Y12, Y14, Y6
	VFMADD231PD Y13, Y14, Y7
	VBROADCASTSD 32(SI), Y14
	VFMADD231PD Y12, Y14, Y8
	VFMADD231PD Y13, Y14, Y9
	VBROADCASTSD 40(SI), Y14
	VFMADD231PD Y12, Y14, Y10
	VFMADD231PD Y13, Y14, Y11
	ADDQ $48, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop64

	// C[r, 0:8] += alpha · acc[r], rows advanced by ldc doubles.
	VBROADCASTSD alpha+24(FP), Y14
	SHLQ $3, R8

	VMOVUPD (DX), Y15
	VFMADD231PD Y0, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y1, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y2, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y3, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y4, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y5, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y6, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y7, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y8, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y9, Y14, Y15
	VMOVUPD Y15, 32(DX)
	ADDQ R8, DX

	VMOVUPD (DX), Y15
	VFMADD231PD Y10, Y14, Y15
	VMOVUPD Y15, (DX)
	VMOVUPD 32(DX), Y15
	VFMADD231PD Y11, Y14, Y15
	VMOVUPD Y15, 32(DX)

	VZEROUPPER
	RET
