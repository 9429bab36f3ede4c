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
// and u[i] (R8 steps through them, R13 through the panel rows); per panel
// c − s·v[i] stored (the first panel through the lane mask), then
// acc += u[i]·c. The panel-count branches go the same way on every row.
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
	XORQ R8, R8
	XORQ R13, R13
	TESTQ CX, CX
	JZ   udstore

udloop:
	VBROADCASTSD (SI)(R8*8), Y12
	VBROADCASTSD (DI)(R8*8), Y13
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
	INCQ R8
	ADDQ $32, R13
	CMPQ R8, CX
	JLT  udloop

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
// broadcast of u[i] (R8 steps through u, R13 through the panel rows).
// Panel pointers past np repeat the last panel; their dots are not stored.
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
	XORQ R8, R8
	XORQ R13, R13
	TESTQ CX, CX
	JZ   dpstore

dploop:
	VBROADCASTSD (SI)(R8*8), Y4
	VMULPD (R9)(R13*1), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD (R10)(R13*1), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD (R11)(R13*1), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD (R12)(R13*1), Y4, Y8
	VADDPD Y8, Y3, Y3
	INCQ R8
	ADDQ $32, R13
	CMPQ R8, CX
	JLT  dploop

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

// The Box–Muller constants of normLanesAVX512, each the float64 the Go code
// it copies multiplies or adds: math.Log's (log_amd64.s), math.Sincos's
// (sin.go, sincos.go) and the conversion's 2^52 and 2^−53.
DATA bm<>+0(SB)/8, $0x3fe6a09e667f3bcd   // √2/2
DATA bm<>+8(SB)/8, $0x3fe62e42fee00000   // Ln2Hi
DATA bm<>+16(SB)/8, $0x3dea39ef35793c76  // Ln2Lo
DATA bm<>+24(SB)/8, $0x3fe5555555555593  // L1
DATA bm<>+32(SB)/8, $0x3fd999999997fa04  // L2
DATA bm<>+40(SB)/8, $0x3fd2492494229359  // L3
DATA bm<>+48(SB)/8, $0x3fcc71c51d8e78af  // L4
DATA bm<>+56(SB)/8, $0x3fc7466496cb03de  // L5
DATA bm<>+64(SB)/8, $0x3fc39a09d078c69f  // L6
DATA bm<>+72(SB)/8, $0x3fc2f112df3e5244  // L7
DATA bm<>+80(SB)/8, $0x3fe921fb40000000  // PI4A
DATA bm<>+88(SB)/8, $0x3e64442d00000000  // PI4B
DATA bm<>+96(SB)/8, $0x3ce8469898cc5170  // PI4C
DATA bm<>+104(SB)/8, $0x3ff45f306dc9c883 // 4/π
DATA bm<>+112(SB)/8, $0x401921fb54442d18 // 2π
DATA bm<>+120(SB)/8, $0x3de5d8fd1fd19ccd // _sin[0]
DATA bm<>+128(SB)/8, $0xbe5ae5e5a9291f5d
DATA bm<>+136(SB)/8, $0x3ec71de3567d48a1
DATA bm<>+144(SB)/8, $0xbf2a01a019bfdf03
DATA bm<>+152(SB)/8, $0x3f8111111110f7d0
DATA bm<>+160(SB)/8, $0xbfc5555555555548 // _sin[5]
DATA bm<>+168(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA bm<>+176(SB)/8, $0x3e21ee9d7b4e3f05
DATA bm<>+184(SB)/8, $0xbe927e4f7eac4bc6
DATA bm<>+192(SB)/8, $0x3efa01a019c844f5
DATA bm<>+200(SB)/8, $0xbf56c16c16c14f91
DATA bm<>+208(SB)/8, $0x3fa555555555554b // _cos[5]
DATA bm<>+216(SB)/8, $0x43300000000003fe // 2^52 + 1022
DATA bm<>+224(SB)/8, $0x4330000000000000 // 2^52
DATA bm<>+232(SB)/8, $0x3ca0000000000000 // 2^−53
DATA bm<>+240(SB)/8, $0x000fffffffffffff // mantissa mask
DATA bm<>+248(SB)/8, $0x3fe0000000000000 // 0.5
DATA bm<>+256(SB)/8, $0x3ff0000000000000 // 1
DATA bm<>+264(SB)/8, $0x4000000000000000 // 2
DATA bm<>+272(SB)/8, $0xc000000000000000 // −2
DATA bm<>+280(SB)/8, $1
DATA bm<>+288(SB)/8, $2
DATA bm<>+296(SB)/8, $4
GLOBL bm<>(SB), RODATA|NOPTR, $304

#define bmHSqrt2 bm<>+0(SB)
#define bmLn2Hi bm<>+8(SB)
#define bmLn2Lo bm<>+16(SB)
#define bmL1 bm<>+24(SB)
#define bmL2 bm<>+32(SB)
#define bmL3 bm<>+40(SB)
#define bmL4 bm<>+48(SB)
#define bmL5 bm<>+56(SB)
#define bmL6 bm<>+64(SB)
#define bmL7 bm<>+72(SB)
#define bmPI4A bm<>+80(SB)
#define bmPI4B bm<>+88(SB)
#define bmPI4C bm<>+96(SB)
#define bmFourOverPi bm<>+104(SB)
#define bmTwoPi bm<>+112(SB)
#define bmS0 bm<>+120(SB)
#define bmS1 bm<>+128(SB)
#define bmS2 bm<>+136(SB)
#define bmS3 bm<>+144(SB)
#define bmS4 bm<>+152(SB)
#define bmS5 bm<>+160(SB)
#define bmC0 bm<>+168(SB)
#define bmC1 bm<>+176(SB)
#define bmC2 bm<>+184(SB)
#define bmC3 bm<>+192(SB)
#define bmC4 bm<>+200(SB)
#define bmC5 bm<>+208(SB)
#define bmKBias bm<>+216(SB)
#define bmTwoP52 bm<>+224(SB)
#define bmTwoM53 bm<>+232(SB)
#define bmMant bm<>+240(SB)
#define bmHalf bm<>+248(SB)
#define bmOne bm<>+256(SB)
#define bmTwo bm<>+264(SB)
#define bmMinusTwo bm<>+272(SB)
#define bmInt1 bm<>+280(SB)
#define bmInt2 bm<>+288(SB)
#define bmInt4 bm<>+296(SB)

// BMCONST loads the constants the macros below keep in registers: Z31 = 1,
// Z30 = 2^52, Z29 = the mantissa mask, Z28 = 0.5, Z27 = √2/2, Z26 = 1,
// Z25 = 2 and Z24 = 4 (the last three as integers).
#define BMCONST \
	VBROADCASTSD bmOne, Z31;    \
	VBROADCASTSD bmTwoP52, Z30; \
	VBROADCASTSD bmMant, Z29;   \
	VBROADCASTSD bmHalf, Z28;   \
	VBROADCASTSD bmHSqrt2, Z27; \
	VBROADCASTSD bmInt1, Z26;   \
	VBROADCASTSD bmInt2, Z25;   \
	VBROADCASTSD bmInt4, Z24

// XOSHIRO sets out to the next xoshiro256++ output of the eight streams
// whose states are in Z0–Z3 (rng.Source.Uint64, lane by lane).
#define XOSHIRO(out, t) \
	VPADDQ Z3, Z0, t;   \
	VPROLQ $23, t, t;   \
	VPADDQ Z0, t, out;  \
	VPSLLQ $17, Z1, t;  \
	VPXORQ Z0, Z2, Z2;  \
	VPXORQ Z1, Z3, Z3;  \
	VPXORQ Z2, Z1, Z1;  \
	VPXORQ Z3, Z0, Z0;  \
	VPXORQ t, Z2, Z2;   \
	VPROLQ $45, Z3, Z3

// UNIFORM turns 64 random bits into rng.Source.Float64's
// float64(x>>11)·2^−53. The 53-bit integer converts exactly without AVX512DQ:
// its low 52 bits are or-ed into 2^52's mantissa and 2^52 subtracted, and
// 2^52 is added back where bit 52 is set; every step is exact.
#define UNIFORM(x, t)             \
	VPSRLQ $11, x, x;             \
	VPSRLQ $52, x, t;             \
	VPTESTMQ t, t, K2;            \
	VPANDQ Z29, x, x;             \
	VPORQ Z30, x, x;              \
	VSUBPD Z30, x, x;             \
	VADDPD Z30, x, K2, x;         \
	VMULPD.BCST bmTwoM53, x, x

// LOG sets x to math.Log(x) for normal positive x, by log_amd64.s's
// operations in its order: frexp, the √2/2 adjustment through a 0-or-1
// multiplier, s = f/(2+f), the two polynomials in s⁴ and the final
// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
#define LOG(x, k, f, s, s2, s4, t)   \
	VPSRLQ $52, x, k;                \
	VPORQ Z30, k, k;                 \
	VSUBPD.BCST bmKBias, k, k;       \
	VPANDQ Z29, x, f;                \
	VPORQ Z28, f, f;                 \
	VCMPPD $2, Z27, f, K1;           \
	VMOVAPD.Z Z31, K1, t;            \
	VSUBPD t, k, k;                  \
	VADDPD Z31, t, t;                \
	VMULPD t, f, f;                  \
	VSUBPD Z31, f, f;                \
	VADDPD.BCST bmTwo, f, t;         \
	VDIVPD t, f, s;                  \
	VMULPD s, s, s2;                 \
	VMULPD s2, s2, s4;               \
	VMULPD.BCST bmL7, s4, t;         \
	VADDPD.BCST bmL5, t, t;          \
	VMULPD s4, t, t;                 \
	VADDPD.BCST bmL3, t, t;          \
	VMULPD s4, t, t;                 \
	VADDPD.BCST bmL1, t, t;          \
	VMULPD t, s2, s2;                \
	VMULPD.BCST bmL6, s4, t;         \
	VADDPD.BCST bmL4, t, t;          \
	VMULPD s4, t, t;                 \
	VADDPD.BCST bmL2, t, t;          \
	VMULPD t, s4, s4;                \
	VADDPD s4, s2, s2;               \
	VMULPD Z28, f, t;                \
	VMULPD f, t, t;                  \
	VADDPD t, s2, s2;                \
	VMULPD s2, s, s;                 \
	VMULPD.BCST bmLn2Lo, k, s4;      \
	VADDPD s4, s, s;                 \
	VSUBPD s, t, t;                  \
	VSUBPD f, t, t;                  \
	VMULPD.BCST bmLn2Hi, k, k;       \
	VSUBPD t, k, x

// SINCOS sets s, c to math.Sincos(x) for 0 ≤ x < 2^29, by its operations in
// its order: j = ⌊x·4/π⌋ made even, z = ((x − j·PI4A) − j·PI4B) − j·PI4C,
// both polynomials in z², then the octant's swap and signs. j is read from
// j + 2^52's low bits: bit 1 swaps, bit 2 negates the sine and bit 1 ⊕ bit 2
// the cosine.
#define SINCOS(x, s, c, y, j, z, zz, t) \
	VMULPD.BCST bmFourOverPi, x, y;     \
	VRNDSCALEPD $11, y, y;              \
	VADDPD Z30, y, j;                   \
	VPTESTMQ Z26, j, K2;                \
	VADDPD Z31, y, K2, y;               \
	VPADDQ Z26, j, K2, j;               \
	VMULPD.BCST bmPI4A, y, t;           \
	VSUBPD t, x, z;                     \
	VMULPD.BCST bmPI4B, y, t;           \
	VSUBPD t, z, z;                     \
	VMULPD.BCST bmPI4C, y, t;           \
	VSUBPD t, z, z;                     \
	VMULPD z, z, zz;                    \
	VMULPD.BCST bmC0, zz, c;            \
	VADDPD.BCST bmC1, c, c;             \
	VMULPD zz, c, c;                    \
	VADDPD.BCST bmC2, c, c;             \
	VMULPD zz, c, c;                    \
	VADDPD.BCST bmC3, c, c;             \
	VMULPD zz, c, c;                    \
	VADDPD.BCST bmC4, c, c;             \
	VMULPD zz, c, c;                    \
	VADDPD.BCST bmC5, c, c;             \
	VMULPD zz, zz, t;                   \
	VMULPD c, t, c;                     \
	VMULPD Z28, zz, t;                  \
	VSUBPD t, Z31, t;                   \
	VADDPD c, t, c;                     \
	VMULPD.BCST bmS0, zz, s;            \
	VADDPD.BCST bmS1, s, s;             \
	VMULPD zz, s, s;                    \
	VADDPD.BCST bmS2, s, s;             \
	VMULPD zz, s, s;                    \
	VADDPD.BCST bmS3, s, s;             \
	VMULPD zz, s, s;                    \
	VADDPD.BCST bmS4, s, s;             \
	VMULPD zz, s, s;                    \
	VADDPD.BCST bmS5, s, s;             \
	VMULPD zz, z, t;                    \
	VMULPD s, t, s;                     \
	VADDPD s, z, s;                     \
	VPTESTMQ Z25, j, K3;                \
	VBLENDMPD c, s, K3, t;              \
	VBLENDMPD s, c, K3, c;              \
	VPSRLQ $1, j, y;                    \
	VPXORQ j, y, y;                     \
	VPANDQ Z25, y, y;                   \
	VPSLLQ $62, y, y;                   \
	VPXORQ y, c, c;                     \
	VPANDQ Z24, j, y;                   \
	VPSLLQ $61, y, y;                   \
	VPXORQ y, t, s

// NORMPAIR draws one Box–Muller pair in each lane, rng.Source.NormFloat64's
// u1 = 1 − Float64(), u2 = Float64(), r = √(−2·log u1), and leaves r·cos(2π·u2)
// in Z14 and r·sin(2π·u2) in Z13.
#define NORMPAIR                                   \
	XOSHIRO(Z5, Z6);                               \
	XOSHIRO(Z7, Z6);                               \
	UNIFORM(Z5, Z6);                               \
	UNIFORM(Z7, Z6);                               \
	VSUBPD Z5, Z31, Z5;                            \
	LOG(Z5, Z8, Z9, Z10, Z11, Z12, Z13);           \
	VMULPD.BCST bmMinusTwo, Z5, Z5;                \
	VSQRTPD Z5, Z5;                                \
	VMULPD.BCST bmTwoPi, Z7, Z7;                   \
	SINCOS(Z7, Z13, Z14, Z8, Z9, Z10, Z11, Z12);   \
	VMULPD Z14, Z5, Z14;                           \
	VMULPD Z13, Z5, Z13

// func normLanesAVX512(dst []float64, cols int, st *gaussLanes)
//
// Fills eight consecutive rows of cols columns from dst[0] with
// rng.Source.FillNorm's draws, row l from the xoshiro256++ state in lane l of
// st[0…3]; st[4] holds each row's offset l·cols. Each pair of columns is one
// NormFloat64 pair, r·cos then r·sin, scattered to the eight rows; an odd
// last column takes the cosine alone.
TEXT ·normLanesAVX512(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ cols+24(FP), CX
	MOVQ st+32(FP), SI
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	BMCONST
	MOVQ CX, DX
	SHRQ $1, CX
	JZ   normtail

normloop:
	NORMPAIR
	KXNORW K4, K4, K4
	VSCATTERQPD Z14, K4, (DI)(Z4*8)
	KXNORW K4, K4, K4
	VSCATTERQPD Z13, K4, 8(DI)(Z4*8)
	ADDQ $16, DI
	DECQ CX
	JNZ  normloop

normtail:
	TESTQ $1, DX
	JZ    normdone
	NORMPAIR
	KXNORW K4, K4, K4
	VSCATTERQPD Z14, K4, (DI)(Z4*8)

normdone:
	VZEROUPPER
	RET

// func logSincosAVX512(lg, sn, cs *[8]float64)
//
// The LOG and SINCOS lanes alone, for the tests: lg[l] = log(lg[l]), and
// sn[l], cs[l] = sin, cos of sn[l].
TEXT ·logSincosAVX512(SB), NOSPLIT, $0-24
	MOVQ lg+0(FP), DI
	MOVQ sn+8(FP), SI
	MOVQ cs+16(FP), DX
	BMCONST
	VMOVUPD 0(DI), Z5
	LOG(Z5, Z8, Z9, Z10, Z11, Z12, Z13)
	VMOVUPD Z5, 0(DI)
	VMOVUPD 0(SI), Z7
	SINCOS(Z7, Z13, Z14, Z8, Z9, Z10, Z11, Z12)
	VMOVUPD Z13, 0(SI)
	VMOVUPD Z14, 0(DX)
	VZEROUPPER
	RET
