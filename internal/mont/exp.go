package mont

import (
	"math/big"
	"math/bits"
)

// expWindow is the fixed window width of ExpWindow. Six bits balances the
// 2^6-entry per-call table build (62 multiplies) against the per-window
// multiply count at the exponent widths the Paillier paths use (512–2112
// bits); it matches the fixed-base window the randomizer tables use.
const expWindow = 6

// ExpWindow computes z = x^e in Montgomery form: x must be in Montgomery
// form and z receives the Montgomery form of the power. e is a plain
// non-negative exponent. Left-to-right fixed windows: the 2^w-entry odd-and-
// even table lives on the stack, squarings run through SqrREDC. z may alias
// x. Zero heap allocations per call.
func (c *Ctx) ExpWindow(z, x Nat, e *big.Int) {
	k := c.k
	if e.Sign() == 0 {
		copy(z, c.one)
		return
	}
	var tableBuf [(1 << expWindow) * MaxLimbs]big.Word
	table := tableBuf[: (1<<expWindow)*k : (1<<expWindow)*k]
	copy(table[0:k], c.one)
	copy(table[k:2*k], x)
	for i := 2; i < 1<<expWindow; i++ {
		c.MulREDC(table[i*k:(i+1)*k], table[(i-1)*k:i*k], x)
	}
	var accBuf [MaxLimbs]big.Word
	acc := accBuf[:k]
	copy(acc, c.one)
	eb := e.Bits()
	nw := (e.BitLen() + expWindow - 1) / expWindow
	for wi := nw - 1; wi >= 0; wi-- {
		if wi != nw-1 {
			for s := 0; s < expWindow; s++ {
				c.SqrREDC(acc, acc)
			}
		}
		if d := window(eb, wi); d != 0 {
			c.MulREDC(acc, acc, table[d*k:(d+1)*k])
		}
	}
	copy(z, acc)
}

// window extracts the wi-th expWindow-bit digit of the little-endian word
// vector eb, straddling a word boundary when needed.
func window(eb []big.Word, wi int) int {
	bitPos := wi * expWindow
	wordIdx := bitPos / bits.UintSize
	bitIdx := bitPos % bits.UintSize
	if wordIdx >= len(eb) {
		return 0
	}
	d := uint(eb[wordIdx]) >> bitIdx
	if bitIdx+expWindow > bits.UintSize && wordIdx+1 < len(eb) {
		d |= uint(eb[wordIdx+1]) << (bits.UintSize - bitIdx)
	}
	return int(d & (1<<expWindow - 1))
}

// ExpBig computes z = base^e mod m on plain big.Int values through the
// Montgomery kernel: reduce, convert in, ExpWindow, convert out. z may alias
// base. The conversions cost two REDC passes total, noise next to the
// exponentiation itself.
func (c *Ctx) ExpBig(z, base, e *big.Int) *big.Int {
	var xb [MaxLimbs]big.Word
	k := c.k
	x := c.SetBig(xb[:k], base)
	c.ToMont(x, x)
	c.ExpWindow(x, x, e)
	c.FromMont(x, x)
	return c.PutBig(z, x)
}

// Exp sets z = base^e mod m by the faster exponentiation for this context's
// kernel, and returns z. On IFMA that is ExpBig; on CIOS it is big.Int.Exp,
// whose own assembly Montgomery ladder ExpWindow does not beat (DESIGN.md
// §12). Both return the same residue. z may alias base.
func (c *Ctx) Exp(z, base, e *big.Int) *big.Int {
	if c.kern == kernIFMA {
		return c.ExpBig(z, base, e)
	}
	return z.Exp(base, e, c.m)
}
