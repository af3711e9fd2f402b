#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// The tile's registers: Y0 and Y1 hold the broadcast A element of rows 0
// and 1, Y2 a vector of B's row, Y3 a product, Y4–Y7 the tail's masks and
// Y8–Y11 (row 0) and Y12–Y15 (row 1) the sums of the chunk's four vectors.
// R12 walks A down k, R13 walks B down k; R9 is A's row stride, R10 A's k
// stride and R8 B's row (and o's row) stride, all in bytes.
//
// P adds a product to a sum as p + s, S as s + p. VADDPD's first source is
// its second operand, and x86 returns that operand's payload when both are
// NaN, so a k step takes the Go loop's order: P, P, S, P over a group of four
// and P for a remainder step.
#define P(p, s) VADDPD s, p, s
#define S(p, s) VADDPD p, s, s

// LD loads a whole vector of B's row; LDM loads the lanes its mask sets and
// zeroes the rest.
#define LD(off, mask) VMOVUPD off(R13), Y2
#define LDM(off, mask) VMASKMOVPD off(R13), mask, Y2

// Each product is B's element times A's (b·a, as the Go loop's MULSD takes
// them), rounded before its add.
#define VEC2(LOAD, ADD, off, mask, s0, s1) \
	LOAD(off, mask); \
	VMULPD Y0, Y2, Y3; \
	ADD(Y3, s0); \
	VMULPD Y1, Y2, Y3; \
	ADD(Y3, s1)

#define STEP2(LOAD, ADD) \
	VBROADCASTSD (R12), Y0; \
	VBROADCASTSD (R12)(R9*1), Y1; \
	VEC2(LOAD, ADD, 0, Y4, Y8, Y12); \
	VEC2(LOAD, ADD, 32, Y5, Y9, Y13); \
	VEC2(LOAD, ADD, 64, Y6, Y10, Y14); \
	VEC2(LOAD, ADD, 96, Y7, Y11, Y15); \
	ADDQ R10, R12; \
	ADDQ R8, R13

#define VEC1(LOAD, ADD, off, mask, s0) \
	LOAD(off, mask); \
	VMULPD Y0, Y2, Y3; \
	ADD(Y3, s0)

#define STEP1(LOAD, ADD) \
	VBROADCASTSD (R12), Y0; \
	VEC1(LOAD, ADD, 0, Y4, Y8); \
	VEC1(LOAD, ADD, 32, Y5, Y9); \
	VEC1(LOAD, ADD, 64, Y6, Y10); \
	VEC1(LOAD, ADD, 96, Y7, Y11); \
	ADDQ R10, R12; \
	ADDQ R8, R13

// MASKS loads the tail's masks for its DX = w columns, 1 ≤ w ≤ 15:
// tailMasks[16-w:], four vectors long, sets lane l of vector c where 4c+l < w.
#define MASKS \
	MOVQ    DX, R11; \
	NEGQ    R11; \
	ADDQ    $16, R11; \
	LEAQ    ·tailMasks(SB), R12; \
	VMOVUPD 0(R12)(R11*8), Y4; \
	VMOVUPD 32(R12)(R11*8), Y5; \
	VMOVUPD 64(R12)(R11*8), Y6; \
	VMOVUPD 96(R12)(R11*8), Y7

#define ZERO4(s0, s1, s2, s3) \
	VXORPD s0, s0, s0; \
	VXORPD s1, s1, s1; \
	VXORPD s2, s2, s2; \
	VXORPD s3, s3, s3

// GET4 and PUT4 move one row's four vectors at mem between memory and the
// sums; the M forms move only the lanes the masks set.
#define GET4(mem, s0, s1, s2, s3) \
	VMOVUPD 0 mem, s0; \
	VMOVUPD 32 mem, s1; \
	VMOVUPD 64 mem, s2; \
	VMOVUPD 96 mem, s3

#define PUT4(mem, s0, s1, s2, s3) \
	VMOVUPD s0, 0 mem; \
	VMOVUPD s1, 32 mem; \
	VMOVUPD s2, 64 mem; \
	VMOVUPD s3, 96 mem

#define GET4M(mem, s0, s1, s2, s3) \
	VMASKMOVPD 0 mem, Y4, s0; \
	VMASKMOVPD 32 mem, Y5, s1; \
	VMASKMOVPD 64 mem, Y6, s2; \
	VMASKMOVPD 96 mem, Y7, s3

#define PUT4M(mem, s0, s1, s2, s3) \
	VMASKMOVPD s0, Y4, 0 mem; \
	VMASKMOVPD s1, Y5, 32 mem; \
	VMASKMOVPD s2, Y6, 64 mem; \
	VMASKMOVPD s3, Y7, 96 mem

// func tile(o, a, b []float64, n, ld, kb, ar, ax int, zero bool)
TEXT ·tile(SB), NOSPLIT, $0-113
	MOVQ    o_base+0(FP), DI
	MOVQ    a_base+24(FP), SI
	MOVQ    b_base+48(FP), BX
	MOVQ    n+72(FP), DX         // columns left
	MOVQ    ld+80(FP), R8
	MOVQ    kb+88(FP), CX
	MOVQ    ar+96(FP), R9
	SHLQ    $3, R9
	MOVQ    ax+104(FP), R10
	SHLQ    $3, R10
	MOVBLZX zero+112(FP), AX
	CMPQ    o_len+8(FP), R8
	JLE     one
	SHLQ    $3, R8

two:
	CMPQ  DX, $16
	JLT   twotail
	TESTQ AX, AX
	JZ    twoget
	ZERO4(Y8, Y9, Y10, Y11)
	ZERO4(Y12, Y13, Y14, Y15)
	JMP   twok

twoget:
	GET4((DI), Y8, Y9, Y10, Y11)
	GET4((DI)(R8*1), Y12, Y13, Y14, Y15)

twok:
	MOVQ SI, R12
	MOVQ BX, R13
	MOVQ CX, R14
	SHRQ $2, R14
	JZ   tworem

twogroup:
	STEP2(LD, P)
	STEP2(LD, P)
	STEP2(LD, S)
	STEP2(LD, P)
	DECQ R14
	JNZ  twogroup

tworem:
	MOVQ CX, R14
	ANDQ $3, R14
	JZ   twoput

tworem1:
	STEP2(LD, P)
	DECQ R14
	JNZ  tworem1

twoput:
	PUT4((DI), Y8, Y9, Y10, Y11)
	PUT4((DI)(R8*1), Y12, Y13, Y14, Y15)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, DX
	JMP  two

twotail:
	TESTQ DX, DX
	JZ    done
	MASKS
	TESTQ AX, AX
	JZ    twotailget
	ZERO4(Y8, Y9, Y10, Y11)
	ZERO4(Y12, Y13, Y14, Y15)
	JMP   twotailk

twotailget:
	GET4M((DI), Y8, Y9, Y10, Y11)
	GET4M((DI)(R8*1), Y12, Y13, Y14, Y15)

twotailk:
	MOVQ SI, R12
	MOVQ BX, R13
	MOVQ CX, R14
	SHRQ $2, R14
	JZ   twotailrem

twotailgroup:
	STEP2(LDM, P)
	STEP2(LDM, P)
	STEP2(LDM, S)
	STEP2(LDM, P)
	DECQ R14
	JNZ  twotailgroup

twotailrem:
	MOVQ CX, R14
	ANDQ $3, R14
	JZ   twotailput

twotailrem1:
	STEP2(LDM, P)
	DECQ R14
	JNZ  twotailrem1

twotailput:
	PUT4M((DI), Y8, Y9, Y10, Y11)
	PUT4M((DI)(R8*1), Y12, Y13, Y14, Y15)
	JMP done

one:
	SHLQ $3, R8

onechunk:
	CMPQ  DX, $16
	JLT   onetail
	TESTQ AX, AX
	JZ    oneget
	ZERO4(Y8, Y9, Y10, Y11)
	JMP   onek

oneget:
	GET4((DI), Y8, Y9, Y10, Y11)

onek:
	MOVQ SI, R12
	MOVQ BX, R13
	MOVQ CX, R14
	SHRQ $2, R14
	JZ   onerem

onegroup:
	STEP1(LD, P)
	STEP1(LD, P)
	STEP1(LD, S)
	STEP1(LD, P)
	DECQ R14
	JNZ  onegroup

onerem:
	MOVQ CX, R14
	ANDQ $3, R14
	JZ   oneput

onerem1:
	STEP1(LD, P)
	DECQ R14
	JNZ  onerem1

oneput:
	PUT4((DI), Y8, Y9, Y10, Y11)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, DX
	JMP  onechunk

onetail:
	TESTQ DX, DX
	JZ    done
	MASKS
	TESTQ AX, AX
	JZ    onetailget
	ZERO4(Y8, Y9, Y10, Y11)
	JMP   onetailk

onetailget:
	GET4M((DI), Y8, Y9, Y10, Y11)

onetailk:
	MOVQ SI, R12
	MOVQ BX, R13
	MOVQ CX, R14
	SHRQ $2, R14
	JZ   onetailrem

onetailgroup:
	STEP1(LDM, P)
	STEP1(LDM, P)
	STEP1(LDM, S)
	STEP1(LDM, P)
	DECQ R14
	JNZ  onetailgroup

onetailrem:
	MOVQ CX, R14
	ANDQ $3, R14
	JZ   onetailput

onetailrem1:
	STEP1(LDM, P)
	DECQ R14
	JNZ  onetailrem1

onetailput:
	PUT4M((DI), Y8, Y9, Y10, Y11)

done:
	VZEROUPPER
	RET

// func adamLanes(p, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64)
//
// Four elements per iteration, each operation taking its operands in the
// order the Go loop's compiled SSE code does.
TEXT ·adamLanes(SB), NOSPLIT, $0-160
	MOVQ         p_base+0(FP), DI
	MOVQ         p_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD c1+104(FP), Y9
	VBROADCASTSD b2+112(FP), Y10
	VBROADCASTSD c2+120(FP), Y11
	VBROADCASTSD bc1+128(FP), Y12
	VBROADCASTSD bc2+136(FP), Y13
	VBROADCASTSD lr+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	XORQ         DX, DX

adam:
	CMPQ    DX, CX
	JGE     adamdone
	VMOVUPD (SI)(DX*8), Y0 // g
	VMOVUPD (R8)(DX*8), Y1
	VMULPD  Y8, Y1, Y1     // m·b1
	VMULPD  Y0, Y9, Y2     // c1·g
	VADDPD  Y1, Y2, Y1     // m = c1·g + m·b1
	VMOVUPD Y1, (R8)(DX*8)
	VMOVUPD (R9)(DX*8), Y3
	VMULPD  Y10, Y3, Y3    // v·b2
	VMULPD  Y0, Y11, Y4    // c2·g
	VMULPD  Y0, Y4, Y4     // (c2·g)·g
	VADDPD  Y3, Y4, Y3     // v = c2·g·g + v·b2
	VMOVUPD Y3, (R9)(DX*8)
	VDIVPD  Y12, Y1, Y1    // m̂ = m/bc1
	VDIVPD  Y13, Y3, Y3    // v̂ = v/bc2
	VSQRTPD Y3, Y3
	VMULPD  Y14, Y1, Y1    // m̂·lr
	VADDPD  Y15, Y3, Y3    // √v̂ + eps
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(DX*8), Y2
	VSUBPD  Y1, Y2, Y2     // p − m̂·lr/(√v̂ + eps)
	VMOVUPD Y2, (DI)(DX*8)
	ADDQ    $4, DX
	JMP     adam

adamdone:
	VZEROUPPER
	RET
