//go:build amd64

#include "textflag.h"

// func addMulVVWAsm(z, x []big.Word, y big.Word) (carry big.Word)
//
// z += x*y, returning the final carry. MULX keeps the multiplier in DX;
// ADCX carries the running hi-limb chain, ADOX the z add-back chain, so the
// two additions per limb never serialise on the same flag. Four limbs per
// unrolled block; both flags fold into R15 between blocks (DECQ clobbers
// OF, so the fold cannot ride across the loop edge).
TEXT ·addMulVVWAsm(SB), NOSPLIT, $0-64
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	MOVQ y+48(FP), DX
	XORQ R15, R15          // running carry between blocks

	MOVQ BX, CX
	SHRQ $2, CX            // CX = n/4 blocks
	ANDQ $3, BX            // BX = n%4 tail

	TESTQ CX, CX
	JZ   tail

block4:
	XORQ AX, AX            // clear CF and OF
	MULXQ 0(SI), R8, R9    // lo=R8 hi=R9
	ADCXQ R15, R8          // + carry-in  (CF chain)
	ADOXQ 0(DI), R8        // + z[0]      (OF chain)
	MOVQ R8, 0(DI)
	MULXQ 8(SI), R10, R11
	ADCXQ R9, R10
	ADOXQ 8(DI), R10
	MOVQ R10, 8(DI)
	MULXQ 16(SI), R12, R13
	ADCXQ R11, R12
	ADOXQ 16(DI), R12
	MOVQ R12, 16(DI)
	MULXQ 24(SI), R14, R15
	ADCXQ R13, R14
	ADOXQ 24(DI), R14
	MOVQ R14, 24(DI)
	// fold CF and OF into R15
	MOVQ $0, AX
	ADCXQ AX, R15
	ADOXQ AX, R15

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  block4

tail:
	TESTQ BX, BX
	JZ   done

tail1:
	XORQ AX, AX
	MULXQ 0(SI), R8, R9
	ADCXQ R15, R8
	ADOXQ 0(DI), R8
	MOVQ R8, 0(DI)
	MOVQ $0, AX
	ADCXQ AX, R9
	ADOXQ AX, R9
	MOVQ R9, R15
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ BX
	JNZ  tail1

done:
	MOVQ R15, carry+56(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
