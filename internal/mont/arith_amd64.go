//go:build amd64

package mont

import "math/big"

//go:generate go run amm_gen.go

// hasADX gates the MULX/ADCX/ADOX row kernel. The go toolchain's baseline
// GOAMD64 level does not guarantee ADX or BMI2, so detect at startup and
// fall back to the portable row on older silicon.
var hasADX = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2 = 1 << 8 // MULX
	const adx = 1 << 19 // ADCX/ADOX
	return ebx&bmi2 != 0 && ebx&adx != 0
}()

// hasIFMA gates the radix-2^52 representation: the CPU must report AVX512F
// and AVX512_IFMA, and the OS must save the opmask and full ZMM state on a
// context switch (XCR0 bits 1, 2 and 5–7, readable once OSXSAVE is set). The
// kernel also uses MULX, so BMI2 is required too.
var hasIFMA = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv0()&zmmState != zmmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const ifma = 1 << 21
	const bmi2 = 1 << 8
	return ebx&avx512f != 0 && ebx&ifma != 0 && ebx&bmi2 != 0
}()

// addMulVVWAsm is the ADX row kernel: dual carry chains (ADCX for the
// running carry, ADOX for the z add-back), four limbs per unrolled block.
//
//go:noescape
func addMulVVWAsm(z, x []big.Word, y big.Word) (carry big.Word)

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS saves.
func xgetbv0() uint32

func addMulVVW(z, x []big.Word, y big.Word) big.Word {
	if hasADX {
		return addMulVVWAsm(z, x, y)
	}
	return addMulVVWGo(z, x, y)
}
