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

// func addRows4(o, b []float64, a0, a1, a2, a3 float64)
//
// Each operation takes its operands in the order the Go loop's compiled
// MULSD and ADDSD do (b·a, then p0+o, p1+s, s+p2, p3+s), so where both
// operands are NaN the lanes return the same payload as the Go loop too.
TEXT ·addRows4(SB), NOSPLIT, $0-80
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	LEAQ (SI)(CX*8), R9            // row b1
	LEAQ (R9)(CX*8), R10           // row b2
	LEAQ (R10)(CX*8), R11          // row b3
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   tail

lanes:
	VMOVUPD (SI)(DX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(DX*8), Y4, Y4
	VMOVUPD (R9)(DX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD (R10)(DX*8), Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  Y4, Y5, Y5
	VMOVUPD (R11)(DX*8), Y4
	VMULPD  Y3, Y4, Y4
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, BX
	JLT     lanes

tail:
	CMPQ   DX, CX
	JGE    done
	VMOVSD (SI)(DX*8), X4
	VMULSD X0, X4, X4
	VADDSD (DI)(DX*8), X4, X4
	VMOVSD (R9)(DX*8), X5
	VMULSD X1, X5, X5
	VADDSD X4, X5, X5
	VMOVSD (R10)(DX*8), X4
	VMULSD X2, X4, X4
	VADDSD X4, X5, X5
	VMOVSD (R11)(DX*8), X4
	VMULSD X3, X4, X4
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(DX*8)
	INCQ   DX
	JMP    tail

done:
	VZEROUPPER
	RET
