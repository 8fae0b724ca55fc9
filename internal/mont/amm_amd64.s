// Code generated by amm_gen.go; DO NOT EDIT.

//go:build amd64

#include "textflag.h"

// func amm8(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·8) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm8(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z31, Z31, Z31
	MOVQ $8, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 0(CX), Z29, Z0
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z31, Z0
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 0(CX), Z29, Z0
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $8, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm16(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·16) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z1 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm16(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z31, Z31, Z31
	MOVQ $16, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z31, Z1
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $16, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm24(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·24) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z2 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm24(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z31, Z31, Z31
	MOVQ $24, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z31, Z2
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $24, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm32(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·32) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z3 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm32(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z31, Z31, Z31
	MOVQ $32, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z31, Z3
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $32, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm40(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·40) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z4 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm40(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z31, Z31, Z31
	MOVQ $40, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 256(SI), Z30, Z4
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPMADD52LUQ 256(CX), Z29, Z4
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z31, Z4
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 256(SI), Z30, Z4
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	VPMADD52HUQ 256(CX), Z29, Z4
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $40, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm48(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·48) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z5 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm48(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z31, Z31, Z31
	MOVQ $48, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 256(SI), Z30, Z4
	VPMADD52LUQ 320(SI), Z30, Z5
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPMADD52LUQ 256(CX), Z29, Z4
	VPMADD52LUQ 320(CX), Z29, Z5
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z5, Z4
	VALIGNQ $1, Z5, Z31, Z5
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 256(SI), Z30, Z4
	VPMADD52HUQ 320(SI), Z30, Z5
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	VPMADD52HUQ 256(CX), Z29, Z4
	VPMADD52HUQ 320(CX), Z29, Z5
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $48, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm56(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·56) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z6 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm56(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z31, Z31, Z31
	MOVQ $56, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 256(SI), Z30, Z4
	VPMADD52LUQ 320(SI), Z30, Z5
	VPMADD52LUQ 384(SI), Z30, Z6
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPMADD52LUQ 256(CX), Z29, Z4
	VPMADD52LUQ 320(CX), Z29, Z5
	VPMADD52LUQ 384(CX), Z29, Z6
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z5, Z4
	VALIGNQ $1, Z5, Z6, Z5
	VALIGNQ $1, Z6, Z31, Z6
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 256(SI), Z30, Z4
	VPMADD52HUQ 320(SI), Z30, Z5
	VPMADD52HUQ 384(SI), Z30, Z6
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	VPMADD52HUQ 256(CX), Z29, Z4
	VPMADD52HUQ 320(CX), Z29, Z5
	VPMADD52HUQ 384(CX), Z29, Z6
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $56, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm64(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·64) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z7 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm64(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z31, Z31, Z31
	MOVQ $64, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 256(SI), Z30, Z4
	VPMADD52LUQ 320(SI), Z30, Z5
	VPMADD52LUQ 384(SI), Z30, Z6
	VPMADD52LUQ 448(SI), Z30, Z7
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPMADD52LUQ 256(CX), Z29, Z4
	VPMADD52LUQ 320(CX), Z29, Z5
	VPMADD52LUQ 384(CX), Z29, Z6
	VPMADD52LUQ 448(CX), Z29, Z7
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z5, Z4
	VALIGNQ $1, Z5, Z6, Z5
	VALIGNQ $1, Z6, Z7, Z6
	VALIGNQ $1, Z7, Z31, Z7
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 256(SI), Z30, Z4
	VPMADD52HUQ 320(SI), Z30, Z5
	VPMADD52HUQ 384(SI), Z30, Z6
	VPMADD52HUQ 448(SI), Z30, Z7
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	VPMADD52HUQ 256(CX), Z29, Z4
	VPMADD52HUQ 320(CX), Z29, Z5
	VPMADD52HUQ 384(CX), Z29, Z6
	VPMADD52HUQ 448(CX), Z29, Z7
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $64, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm72(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·72) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z8 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm72(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z31, Z31, Z31
	MOVQ $72, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 256(SI), Z30, Z4
	VPMADD52LUQ 320(SI), Z30, Z5
	VPMADD52LUQ 384(SI), Z30, Z6
	VPMADD52LUQ 448(SI), Z30, Z7
	VPMADD52LUQ 512(SI), Z30, Z8
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPMADD52LUQ 256(CX), Z29, Z4
	VPMADD52LUQ 320(CX), Z29, Z5
	VPMADD52LUQ 384(CX), Z29, Z6
	VPMADD52LUQ 448(CX), Z29, Z7
	VPMADD52LUQ 512(CX), Z29, Z8
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z5, Z4
	VALIGNQ $1, Z5, Z6, Z5
	VALIGNQ $1, Z6, Z7, Z6
	VALIGNQ $1, Z7, Z8, Z7
	VALIGNQ $1, Z8, Z31, Z8
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 256(SI), Z30, Z4
	VPMADD52HUQ 320(SI), Z30, Z5
	VPMADD52HUQ 384(SI), Z30, Z6
	VPMADD52HUQ 448(SI), Z30, Z7
	VPMADD52HUQ 512(SI), Z30, Z8
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	VPMADD52HUQ 256(CX), Z29, Z4
	VPMADD52HUQ 320(CX), Z29, Z5
	VPMADD52HUQ 384(CX), Z29, Z6
	VPMADD52HUQ 448(CX), Z29, Z7
	VPMADD52HUQ 512(CX), Z29, Z8
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	VMOVDQU64 Z8, 512(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $72, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET

// func amm80(z, a, b, m *big.Word, k0 uint64)
//
// z = a·b·2^(-52·80) mod m, almost reduced: a, b < 2m in normalised
// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in
// Z0–Z9 with limb 0 shadowed in R9, so the quotient digit never waits
// on a vector-to-scalar move of the row it serves.
TEXT ·amm80(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R8
	MOVQ $0x000fffffffffffff, AX // 52-bit limb mask
	XORQ R9, R9                  // accumulator limb 0
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z31, Z31, Z31
	MOVQ $80, R11

row:
	MOVQ (BX), R13
	VPBROADCASTQ R13, Z30        // b[i] in every lane
	MOVQ (SI), DX
	MULXQ R13, R13, R12          // a[0]·b[i]
	ADDQ R13, R9
	ADCQ $0, R12
	MOVQ R9, DX
	IMULQ R8, DX
	ANDQ AX, DX                  // y = acc[0]·k0 mod 2^52
	VPBROADCASTQ DX, Z29
	MULXQ (CX), R13, R10         // m[0]·y
	ADDQ R13, R9
	ADCQ R10, R12
	SHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)
	VPMADD52LUQ 0(SI), Z30, Z0
	VPMADD52LUQ 64(SI), Z30, Z1
	VPMADD52LUQ 128(SI), Z30, Z2
	VPMADD52LUQ 192(SI), Z30, Z3
	VPMADD52LUQ 256(SI), Z30, Z4
	VPMADD52LUQ 320(SI), Z30, Z5
	VPMADD52LUQ 384(SI), Z30, Z6
	VPMADD52LUQ 448(SI), Z30, Z7
	VPMADD52LUQ 512(SI), Z30, Z8
	VPMADD52LUQ 576(SI), Z30, Z9
	VPMADD52LUQ 0(CX), Z29, Z0
	VPMADD52LUQ 64(CX), Z29, Z1
	VPMADD52LUQ 128(CX), Z29, Z2
	VPMADD52LUQ 192(CX), Z29, Z3
	VPMADD52LUQ 256(CX), Z29, Z4
	VPMADD52LUQ 320(CX), Z29, Z5
	VPMADD52LUQ 384(CX), Z29, Z6
	VPMADD52LUQ 448(CX), Z29, Z7
	VPMADD52LUQ 512(CX), Z29, Z8
	VPMADD52LUQ 576(CX), Z29, Z9
	VPEXTRQ $1, X0, R13
	ADDQ R13, R9                 // limb 1 becomes limb 0
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z5, Z4
	VALIGNQ $1, Z5, Z6, Z5
	VALIGNQ $1, Z6, Z7, Z6
	VALIGNQ $1, Z7, Z8, Z7
	VALIGNQ $1, Z8, Z9, Z8
	VALIGNQ $1, Z9, Z31, Z9
	VPMADD52HUQ 0(SI), Z30, Z0
	VPMADD52HUQ 64(SI), Z30, Z1
	VPMADD52HUQ 128(SI), Z30, Z2
	VPMADD52HUQ 192(SI), Z30, Z3
	VPMADD52HUQ 256(SI), Z30, Z4
	VPMADD52HUQ 320(SI), Z30, Z5
	VPMADD52HUQ 384(SI), Z30, Z6
	VPMADD52HUQ 448(SI), Z30, Z7
	VPMADD52HUQ 512(SI), Z30, Z8
	VPMADD52HUQ 576(SI), Z30, Z9
	VPMADD52HUQ 0(CX), Z29, Z0
	VPMADD52HUQ 64(CX), Z29, Z1
	VPMADD52HUQ 128(CX), Z29, Z2
	VPMADD52HUQ 192(CX), Z29, Z3
	VPMADD52HUQ 256(CX), Z29, Z4
	VPMADD52HUQ 320(CX), Z29, Z5
	VPMADD52HUQ 384(CX), Z29, Z6
	VPMADD52HUQ 448(CX), Z29, Z7
	VPMADD52HUQ 512(CX), Z29, Z8
	VPMADD52HUQ 576(CX), Z29, Z9
	ADDQ $8, BX
	DECQ R11
	JNZ row

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	VMOVDQU64 Z8, 512(DI)
	VMOVDQU64 Z9, 576(DI)
	MOVQ R9, (DI)
	VZEROUPPER
	XORQ R10, R10
	MOVQ $80, R11

norm:
	MOVQ (DI), R13
	ADDQ R10, R13
	MOVQ R13, R10
	SHRQ $52, R10
	ANDQ AX, R13
	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ R11
	JNZ norm
	RET
