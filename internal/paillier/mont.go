package paillier

import (
	"math/big"

	"vfps/internal/mont"
)

// The Montgomery kernel (internal/mont) replaces division-based big.Int
// reduction on the modular-multiplication hot paths: fixed-base table
// products (operands chained in Montgomery form across the whole comb
// product), Garner recombination, and ciphertext accumulation
// (AddCipher/AddCipherInto/Sum). Plain modular exponentiations — CRT
// decryption, classic and CRT r^n randomizers — go through the context's Exp,
// which runs the kernel's windowed exponentiation on the IFMA representation
// and big.Int.Exp on CIOS, where big.Int's own assembly Montgomery ladder is
// faster (DESIGN.md §12). The kernel runs whenever the modulus fits
// mont.MaxLimbs; a wider one falls back to math/big. Every path computes the
// exact same residues, so ciphertexts, sums and selections do not depend on
// which one ran.

// A nil context is how every call site learns to take its math/big branch:
// the modulus is too wide for the kernel, or this package's tests set the
// key's arith hook to reach that fallback on a key that would fit.

// montN2 returns the shared Montgomery context for n², or nil (callers fall
// back to math/big).
func (pk *PublicKey) montN2() *mont.Ctx {
	switch pk.arith {
	case arithStdlib:
		return nil
	case arithCIOS:
		return mont.CIOSFor(pk.N2)
	}
	return mont.CtxFor(pk.N2)
}

// newMontCtx builds a private context for a key-local modulus (q, p², q²),
// swallowing the only possible failure (modulus too wide) into nil.
func (pk *PublicKey) newMontCtx(m *big.Int) *mont.Ctx {
	switch pk.arith {
	case arithStdlib:
		return nil
	case arithCIOS:
		return mont.CIOSFor(m)
	}
	c, err := mont.NewCtx(m)
	if err != nil {
		return nil
	}
	return c
}

// expMod sets z = x^e mod m through ctx's Exp, or big.Int.Exp without a
// context, and returns z.
func expMod(ctx *mont.Ctx, z, x, e, m *big.Int) *big.Int {
	if ctx != nil {
		return ctx.Exp(z, x, e)
	}
	return z.Exp(x, e, m)
}

// montSum folds the ciphertext product in a single fixed-width accumulator:
// one REDC pass per ciphertext (the operands stay un-normalised limb vectors
// across the whole reduction) plus one final pass against R^(t+1) to repair
// the accumulated R^(−t) deficit, converting back to a big.Int exactly once.
// Compare the stdlib fold's full Mul+Mod per element.
func (pk *PublicKey) montSum(ctx *mont.Ctx, cs []*Ciphertext) (*Ciphertext, error) {
	k := ctx.K()
	var accBuf, opBuf [mont.MaxLimbs]big.Word
	acc := ctx.SetBig(accBuf[:k], cs[0].C)
	op := opBuf[:k]
	for _, c := range cs[1:] {
		if err := pk.validate(c); err != nil {
			return nil, err
		}
		ctx.MulREDC(acc, acc, ctx.SetBig(op, c.C))
	}
	ctx.MulREDC(acc, acc, ctx.RPow(len(cs)))
	return &Ciphertext{C: ctx.PutBig(new(big.Int), acc)}, nil
}
