//go:build !amd64

package mont

import "math/big"

// Without amd64 there is no IFMA kernel: every context runs CIOS.
const (
	hasIFMA      = false
	maxIFMALimbs = 0
)

func amm(z, a, b, m Nat, k0 big.Word) { panic("mont: IFMA kernel on a non-amd64 build") }

func addMulVVW(z, x []big.Word, y big.Word) big.Word {
	return addMulVVWGo(z, x, y)
}
