//go:build !purego

#include "textflag.h"

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TAP multiplies one tap of one lane pair and adds it to an accumulator:
// acc += h2[…] * x[…], the scalar kernel's MUL then ADD, never fused.
#define TAP(h, x, acc, tmp) \
	VMOVUPD h, tmp \
	VMULPD  x, tmp, tmp \
	VADDPD  tmp, acc, acc

// PHASE folds the odd-tap set into the even one (re0+re1, im0+im1) and
// multiplies both lanes of the pair by their phases ph[off/16], ph[off/16+1]:
// (re·pr − im·pi, re·pi + im·pr), each product rounded before the add.
#define PHASE(off, even, odd) \
	VADDPD     odd, even, even \
	VMOVUPD    off(R8), Y12 \
	VPERMILPD  $5, Y12, Y13 \
	VMOVDDUP   even, Y14 \
	VPERMILPD  $15, even, Y15 \
	VMULPD     Y12, Y14, Y14 \
	VMULPD     Y13, Y15, Y15 \
	VADDSUBPD  Y15, Y14, Y14 \
	VMOVUPD    Y14, off(DI)

// func convDotAVX(out *complex128, h2 *float64, x *complex128, ph *complex128, pairs, taps, lanes int)
//
// Lanes [0, 2·pairs) of one convolution row. One YMM register holds the
// (re, im) accumulators of two adjacent lanes; h2 repeats each real tap
// twice, so h2 and x share byte offsets. Per lane the operation order is
// convDot's: even taps into one accumulator set, odd taps into another,
// an odd last tap into the even set, then the phase multiply. Lane pairs
// run four at a time (eight independent add chains), then one at a time.
TEXT ·convDotAVX(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ h2+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ ph+24(FP), R8
	MOVQ pairs+32(FP), CX
	MOVQ taps+40(FP), R9
	MOVQ lanes+48(FP), R10
	SHLQ $4, R10           // tap stride in bytes, 16·lanes
	LEAQ (R10)(R10*1), R11 // two taps

quad:
	CMPQ CX, $4
	JLT  single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, BX
	MOVQ   DX, AX
	MOVQ   R9, R12

quadtaps:
	CMPQ R12, $2
	JLT  quadtail
	TAP(0(BX), 0(AX), Y0, Y8)
	TAP(32(BX), 32(AX), Y2, Y9)
	TAP(64(BX), 64(AX), Y4, Y10)
	TAP(96(BX), 96(AX), Y6, Y11)
	TAP(0(BX)(R10*1), 0(AX)(R10*1), Y1, Y12)
	TAP(32(BX)(R10*1), 32(AX)(R10*1), Y3, Y13)
	TAP(64(BX)(R10*1), 64(AX)(R10*1), Y5, Y14)
	TAP(96(BX)(R10*1), 96(AX)(R10*1), Y7, Y15)
	ADDQ R11, BX
	ADDQ R11, AX
	SUBQ $2, R12
	JMP  quadtaps

quadtail:
	TESTQ R12, R12
	JZ    quadphase
	TAP(0(BX), 0(AX), Y0, Y8)
	TAP(32(BX), 32(AX), Y2, Y9)
	TAP(64(BX), 64(AX), Y4, Y10)
	TAP(96(BX), 96(AX), Y6, Y11)

quadphase:
	PHASE(0, Y0, Y1)
	PHASE(32, Y2, Y3)
	PHASE(64, Y4, Y5)
	PHASE(96, Y6, Y7)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, R8
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, BX
	MOVQ   DX, AX
	MOVQ   R9, R12

singletaps:
	CMPQ R12, $2
	JLT  singletail
	TAP(0(BX), 0(AX), Y0, Y8)
	TAP(0(BX)(R10*1), 0(AX)(R10*1), Y1, Y9)
	ADDQ R11, BX
	ADDQ R11, AX
	SUBQ $2, R12
	JMP  singletaps

singletail:
	TESTQ R12, R12
	JZ    singlephase
	TAP(0(BX), 0(AX), Y0, Y8)

singlephase:
	PHASE(0, Y0, Y1)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	DECQ CX
	JMP  single

done:
	VZEROUPPER
	RET
