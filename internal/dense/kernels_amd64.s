#include "textflag.h"

// The AVX forms of the inner loops in kernels.go. Each YMM lane holds one
// output element and receives exactly the Go loop's operations in its order:
// VMULPD then VADDPD/VSUBPD, never a fused multiply-add, and no sum is split
// across lanes. Every function ends with VZEROUPPER so the SSE code around it
// pays no transition penalty.

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func addRowsAVX(y, a []float64, idx []uint32, x []float64, stride int)
//
// y += Σ_p a[p]·x[idx[p]·stride : +len(y)], len(y) a multiple of 4. Columns go
// in blocks of 32, 16 and 4 held in Y0–Y7; each block runs every entry, so an
// element's sum is y + a[0]·x₀ + a[1]·x₁ + … left to right.
TEXT ·addRowsAVX(SB), NOSPLIT, $0-104
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ x_base+72(FP), R10
	MOVQ stride+96(FP), R11
	SHLQ $3, R11
	TESTQ R9, R9
	JZ   rowsdone

rows32:
	CMPQ DX, $32
	JLT  rows16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ R12, R12

loop32:
	MOVL  (R8)(R12*4), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	VBROADCASTSD (SI)(R12*8), Y15
	VMULPD 0(AX), Y15, Y8
	VADDPD Y8, Y0, Y0
	VMULPD 32(AX), Y15, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(AX), Y15, Y10
	VADDPD Y10, Y2, Y2
	VMULPD 96(AX), Y15, Y11
	VADDPD Y11, Y3, Y3
	VMULPD 128(AX), Y15, Y12
	VADDPD Y12, Y4, Y4
	VMULPD 160(AX), Y15, Y13
	VADDPD Y13, Y5, Y5
	VMULPD 192(AX), Y15, Y14
	VADDPD Y14, Y6, Y6
	VMULPD 224(AX), Y15, Y8
	VADDPD Y8, Y7, Y7
	INCQ R12
	CMPQ R12, R9
	JLT  loop32
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R10
	SUBQ $32, DX
	JMP  rows32

rows16:
	CMPQ DX, $16
	JLT  rows4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ R12, R12

loop16:
	MOVL  (R8)(R12*4), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	VBROADCASTSD (SI)(R12*8), Y15
	VMULPD 0(AX), Y15, Y8
	VADDPD Y8, Y0, Y0
	VMULPD 32(AX), Y15, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(AX), Y15, Y10
	VADDPD Y10, Y2, Y2
	VMULPD 96(AX), Y15, Y11
	VADDPD Y11, Y3, Y3
	INCQ R12
	CMPQ R12, R9
	JLT  loop16
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R10
	SUBQ $16, DX

rows4:
	CMPQ DX, $4
	JLT  rowsdone
	VMOVUPD 0(DI), Y0
	XORQ R12, R12

loop4:
	MOVL  (R8)(R12*4), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	VBROADCASTSD (SI)(R12*8), Y15
	VMULPD 0(AX), Y15, Y8
	VADDPD Y8, Y0, Y0
	INCQ R12
	CMPQ R12, R9
	JLT  loop4
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, R10
	SUBQ $4, DX
	JMP  rows4

rowsdone:
	VZEROUPPER
	RET

// laneMask<>+32·l stores lanes l…3 of a panel row (VMASKMOVPD reads the
// sign bit of each quadword).
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $-1
DATA laneMask<>+48(SB)/8, $-1
DATA laneMask<>+56(SB)/8, $-1
DATA laneMask<>+64(SB)/8, $0
DATA laneMask<>+72(SB)/8, $0
DATA laneMask<>+80(SB)/8, $-1
DATA laneMask<>+88(SB)/8, $-1
DATA laneMask<>+96(SB)/8, $0
DATA laneMask<>+104(SB)/8, $0
DATA laneMask<>+112(SB)/8, $0
DATA laneMask<>+120(SB)/8, $-1
GLOBL laneMask<>(SB), RODATA|NOPTR, $128

// func reflectPanelsAVX(v, c []float64, m, np, ps int, tau float64, lane int)
//
// Applies I − tau·v·vᵀ to np (1–4) panels; see reflectPanelsGo. The four
// dot products are four independent accumulators over one broadcast of v[i]
// (panel pointers past np repeat the last panel; their dots are dropped).
// Each panel is then updated row by row; the first one, when lane > 0,
// through a store mask that leaves lanes below lane untouched.
TEXT ·reflectPanelsAVX(SB), NOSPLIT, $0-88
	MOVQ v_base+0(FP), SI
	MOVQ c_base+24(FP), R9
	MOVQ m+48(FP), CX
	MOVQ np+56(FP), DX
	MOVQ ps+64(FP), R8
	SHLQ $3, R8
	TESTQ CX, CX
	JZ   panelsdone
	MOVQ R9, R10
	MOVQ R9, R11
	MOVQ R9, R12
	CMPQ DX, $2
	JLT  dots
	ADDQ R8, R10
	MOVQ R10, R11
	MOVQ R10, R12
	CMPQ DX, $3
	JLT  dots
	ADDQ R8, R11
	MOVQ R11, R12
	CMPQ DX, $4
	JLT  dots
	ADDQ R8, R12

dots:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R13, R13
	MOVQ CX, BX

dotloop:
	VBROADCASTSD (SI)(R13*1), Y4
	VMULPD (R9)(R13*1), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD (R10)(R13*1), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD (R11)(R13*1), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD (R12)(R13*1), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $32, R13
	DECQ BX
	JNZ  dotloop
	VBROADCASTSD tau+72(FP), Y9
	VMULPD Y9, Y0, Y0
	VMULPD Y9, Y1, Y1
	VMULPD Y9, Y2, Y2
	VMULPD Y9, Y3, Y3

	MOVQ lane+80(FP), AX
	TESTQ AX, AX
	JZ   update
	SHLQ $5, AX
	LEAQ laneMask<>(SB), BX
	VMOVUPD (BX)(AX*1), Y11
	XORQ R13, R13
	MOVQ CX, BX

maskloop:
	VBROADCASTSD (SI)(R13*1), Y4
	VMULPD Y4, Y0, Y5
	VMOVUPD (R9)(R13*1), Y6
	VSUBPD Y5, Y6, Y6
	VMASKMOVPD Y6, Y11, (R9)(R13*1)
	ADDQ $32, R13
	DECQ BX
	JNZ  maskloop
	JMP  nextpanel

update:
	XORQ R13, R13
	MOVQ CX, BX

updateloop:
	VBROADCASTSD (SI)(R13*1), Y4
	VMULPD Y4, Y0, Y5
	VMOVUPD (R9)(R13*1), Y6
	VSUBPD Y5, Y6, Y6
	VMOVUPD Y6, (R9)(R13*1)
	ADDQ $32, R13
	DECQ BX
	JNZ  updateloop

nextpanel:
	VMOVAPD Y1, Y0
	VMOVAPD Y2, Y1
	VMOVAPD Y3, Y2
	MOVQ R10, R9
	MOVQ R11, R10
	MOVQ R12, R11
	DECQ DX
	JNZ  update

panelsdone:
	VZEROUPPER
	RET

// func rotateAVX(x, y []float64, c, s float64)
//
// (x[i], y[i]) = (c·x[i] − s·y[i], s·x[i] + c·y[i]) for the first
// len(x) &^ 3 elements.
TEXT ·rotateAVX(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	SHRQ $2, CX
	JZ   rotatedone

rotateloop:
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD Y2, Y0, Y4
	VMULPD Y3, Y1, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y2, Y1, Y6
	VMULPD Y3, Y0, Y7
	VADDPD Y7, Y6, Y6
	VMOVUPD Y4, (SI)
	VMOVUPD Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rotateloop

rotatedone:
	VZEROUPPER
	RET
