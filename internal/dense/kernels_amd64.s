#include "textflag.h"

// The AVX and AVX-512 forms of the inner loops in kernels.go. Each YMM or
// ZMM lane holds one output element and receives exactly the Go loop's
// operations in its order: VMULPD then VADDPD/VSUBPD, never a fused
// multiply-add, and no sum is split across lanes. Every function ends with
// VZEROUPPER so the SSE code around it pays no transition penalty.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
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

// func addRowsAVX512(y, a []float64, idx []uint32, x []float64, stride int)
//
// addRowsAVX for len(y) a multiple of 64: each 64-column block of y is held
// in Z0–Z7 through every entry, one pass over idx and a per block, so an
// element's sum is y + a[0]·x₀ + a[1]·x₁ + … left to right.
TEXT ·addRowsAVX512(SB), NOSPLIT, $0-104
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ x_base+72(FP), R10
	MOVQ stride+96(FP), R11
	SHLQ $3, R11
	TESTQ R9, R9
	JZ   zrowsdone
	SHRQ $6, DX
	JZ   zrowsdone

zrows64:
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	XORQ R12, R12

zloop64:
	MOVL  (R8)(R12*4), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	VBROADCASTSD (SI)(R12*8), Z16
	VMULPD 0(AX), Z16, Z8
	VADDPD Z8, Z0, Z0
	VMULPD 64(AX), Z16, Z9
	VADDPD Z9, Z1, Z1
	VMULPD 128(AX), Z16, Z10
	VADDPD Z10, Z2, Z2
	VMULPD 192(AX), Z16, Z11
	VADDPD Z11, Z3, Z3
	VMULPD 256(AX), Z16, Z12
	VADDPD Z12, Z4, Z4
	VMULPD 320(AX), Z16, Z13
	VADDPD Z13, Z5, Z5
	VMULPD 384(AX), Z16, Z14
	VADDPD Z14, Z6, Z6
	VMULPD 448(AX), Z16, Z15
	VADDPD Z15, Z7, Z7
	INCQ R12
	CMPQ R12, R9
	JLT  zloop64
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, R10
	DECQ DX
	JNZ  zrows64

zrowsdone:
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

// func updateDotAVX(v, u, c []float64, m, np, ps int, s, acc []float64, lane int)
//
// updateDotPanelsGo on np (1–4) panels: per row one broadcast each of v[i]
// and u[i]; per panel c − s·v[i] stored (the first panel through the lane
// mask), then acc += u[i]·c. The panel-count branches go the same way on
// every row.
TEXT ·updateDotAVX(SB), NOSPLIT, $0-152
	MOVQ v_base+0(FP), SI
	MOVQ u_base+24(FP), DI
	MOVQ c_base+48(FP), R9
	MOVQ m+72(FP), CX
	MOVQ np+80(FP), DX
	MOVQ ps+88(FP), R8
	MOVQ s_base+96(FP), AX
	MOVQ acc_base+120(FP), BX
	SHLQ $3, R8
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	MOVQ lane+144(FP), R13
	SHLQ $5, R13
	LEAQ laneMask<>(SB), R8
	VMOVUPD (R8)(R13*1), Y8
	VMOVUPD 0(AX), Y0
	VMOVUPD 0(BX), Y4
	CMPQ DX, $2
	JLT  udloaded
	VMOVUPD 32(AX), Y1
	VMOVUPD 32(BX), Y5
	CMPQ DX, $3
	JLT  udloaded
	VMOVUPD 64(AX), Y2
	VMOVUPD 64(BX), Y6
	CMPQ DX, $4
	JLT  udloaded
	VMOVUPD 96(AX), Y3
	VMOVUPD 96(BX), Y7

udloaded:
	XORQ R13, R13
	TESTQ CX, CX
	JZ   udstore

udloop:
	VBROADCASTSD (SI)(R13*1), Y12
	VBROADCASTSD (DI)(R13*1), Y13
	VMULPD Y12, Y0, Y14
	VMOVUPD (R9)(R13*1), Y15
	VSUBPD Y14, Y15, Y15
	VMASKMOVPD Y15, Y8, (R9)(R13*1)
	VMULPD Y15, Y13, Y15
	VADDPD Y15, Y4, Y4
	CMPQ DX, $2
	JLT  udnext
	VMULPD Y12, Y1, Y14
	VMOVUPD (R10)(R13*1), Y15
	VSUBPD Y14, Y15, Y15
	VMOVUPD Y15, (R10)(R13*1)
	VMULPD Y15, Y13, Y15
	VADDPD Y15, Y5, Y5
	CMPQ DX, $3
	JLT  udnext
	VMULPD Y12, Y2, Y9
	VMOVUPD (R11)(R13*1), Y10
	VSUBPD Y9, Y10, Y10
	VMOVUPD Y10, (R11)(R13*1)
	VMULPD Y10, Y13, Y10
	VADDPD Y10, Y6, Y6
	CMPQ DX, $4
	JLT  udnext
	VMULPD Y12, Y3, Y14
	VMOVUPD (R12)(R13*1), Y15
	VSUBPD Y14, Y15, Y15
	VMOVUPD Y15, (R12)(R13*1)
	VMULPD Y15, Y13, Y15
	VADDPD Y15, Y7, Y7

udnext:
	ADDQ $32, R13
	DECQ CX
	JNZ  udloop

udstore:
	VMOVUPD Y4, 0(BX)
	CMPQ DX, $2
	JLT  uddone
	VMOVUPD Y5, 32(BX)
	CMPQ DX, $3
	JLT  uddone
	VMOVUPD Y6, 64(BX)
	CMPQ DX, $4
	JLT  uddone
	VMOVUPD Y7, 96(BX)

uddone:
	VZEROUPPER
	RET

// func dotPanelsAVX(u, c []float64, m, np, ps int, acc []float64)
//
// dotPanelsGo on np (1–4) panels: four accumulators from +0 over one
// broadcast of u[i]. Panel pointers past np repeat the last panel; their
// dots are not stored.
TEXT ·dotPanelsAVX(SB), NOSPLIT, $0-96
	MOVQ u_base+0(FP), SI
	MOVQ c_base+24(FP), R9
	MOVQ m+48(FP), CX
	MOVQ np+56(FP), DX
	MOVQ ps+64(FP), R8
	MOVQ acc_base+72(FP), BX
	SHLQ $3, R8
	MOVQ R9, R10
	CMPQ DX, $2
	JLT  dp2
	ADDQ R8, R10

dp2:
	MOVQ R10, R11
	CMPQ DX, $3
	JLT  dp3
	ADDQ R8, R11

dp3:
	MOVQ R11, R12
	CMPQ DX, $4
	JLT  dp4
	ADDQ R8, R12

dp4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R13, R13
	TESTQ CX, CX
	JZ   dpstore

dploop:
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
	DECQ CX
	JNZ  dploop

dpstore:
	VMOVUPD Y0, 0(BX)
	CMPQ DX, $2
	JLT  dpdone
	VMOVUPD Y1, 32(BX)
	CMPQ DX, $3
	JLT  dpdone
	VMOVUPD Y2, 64(BX)
	CMPQ DX, $4
	JLT  dpdone
	VMOVUPD Y3, 96(BX)

dpdone:
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

// two<> is the 2 of the recurrence's 2·l1, multiplied as the Go loop does.
DATA two<>+0(SB)/8, $0x4000000000000000
GLOBL two<>(SB), RODATA|NOPTR, $8

// func chebyshevAVX(l0, l1, conv, t []float64, c float64)
//
// chebyshevGo for the first len(l0) &^ 3 elements: l2 = (t − 2·l1) − l0
// stored over l0, then conv + c·l2 stored over conv.
TEXT ·chebyshevAVX(SB), NOSPLIT, $0-104
	MOVQ l0_base+0(FP), DI
	MOVQ l0_len+8(FP), CX
	MOVQ l1_base+24(FP), SI
	MOVQ conv_base+48(FP), BX
	MOVQ t_base+72(FP), DX
	VBROADCASTSD c+96(FP), Y0
	VBROADCASTSD two<>(SB), Y1
	XORQ R8, R8
	SHRQ $2, CX
	JZ   chebdone

chebloop:
	VMULPD  (SI)(R8*1), Y1, Y2
	VMOVUPD (DX)(R8*1), Y3
	VSUBPD  Y2, Y3, Y3
	VSUBPD  (DI)(R8*1), Y3, Y3
	VMOVUPD Y3, (DI)(R8*1)
	VMULPD  Y3, Y0, Y4
	VMOVUPD (BX)(R8*1), Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (BX)(R8*1)
	ADDQ $32, R8
	DECQ CX
	JNZ  chebloop

chebdone:
	VZEROUPPER
	RET

// func chebyshevAVX512(l0, l1, conv, t []float64, c float64)
//
// chebyshevAVX on ZMM registers, for len(l0) a multiple of 8.
TEXT ·chebyshevAVX512(SB), NOSPLIT, $0-104
	MOVQ l0_base+0(FP), DI
	MOVQ l0_len+8(FP), CX
	MOVQ l1_base+24(FP), SI
	MOVQ conv_base+48(FP), BX
	MOVQ t_base+72(FP), DX
	VBROADCASTSD c+96(FP), Z0
	VBROADCASTSD two<>(SB), Z1
	XORQ R8, R8
	SHRQ $3, CX
	JZ   zchebdone

zchebloop:
	VMULPD  (SI)(R8*1), Z1, Z2
	VMOVUPD (DX)(R8*1), Z3
	VSUBPD  Z2, Z3, Z3
	VSUBPD  (DI)(R8*1), Z3, Z3
	VMOVUPD Z3, (DI)(R8*1)
	VMULPD  Z3, Z0, Z4
	VMOVUPD (BX)(R8*1), Z5
	VADDPD  Z4, Z5, Z5
	VMOVUPD Z5, (BX)(R8*1)
	ADDQ $64, R8
	DECQ CX
	JNZ  zchebloop

zchebdone:
	VZEROUPPER
	RET
