package mont

import (
	"math/big"
	"testing"
)

// FuzzMontMulExp cross-checks every Montgomery kernel the host has against
// math/big over fuzz-chosen odd moduli of 1024–3072 bits: MulREDC (through ModMulBig, so
// both REDC directions are covered) against Mul+Mod, and ExpWindow against
// Exp. The exponent is capped at 192 bits to keep iterations fast; window
// extraction and the squaring ladder are width-independent.
func FuzzMontMulExp(f *testing.F) {
	f.Add(byte(0), []byte{3}, []byte{2}, []byte{5}, []byte{7})
	f.Add(byte(37), []byte{0xff, 0x01, 0x17}, []byte{0xfe}, []byte{0xab, 0xcd}, []byte{0x80, 0x00, 0x01})
	f.Add(byte(255), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9}, []byte{10}, []byte{11})
	f.Fuzz(func(t *testing.T, widthSel byte, mb, xb, yb, eb []byte) {
		width := 1024 + int(widthSel)*8 // 1024..3064 bits
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, width-1, 1) // force the width
		m.SetBit(m, 0, 1)       // force odd
		if m.BitLen() > width {
			m.Mod(m, new(big.Int).Lsh(big.NewInt(1), uint(width)))
			m.SetBit(m, width-1, 1)
			m.SetBit(m, 0, 1)
		}
		x := new(big.Int).SetBytes(xb)
		x.Mod(x, m)
		y := new(big.Int).SetBytes(yb)
		y.Mod(y, m)
		e := new(big.Int).SetBytes(eb)
		if e.BitLen() > 192 {
			e.Rsh(e, uint(e.BitLen()-192))
		}

		wantMul := new(big.Int).Mul(x, y)
		wantMul.Mod(wantMul, m)
		wantExp := new(big.Int).Exp(x, e, m)
		for _, kern := range kernels() {
			c, err := newCtx(m, kern)
			if err != nil {
				t.Fatalf("newCtx on %d-bit odd modulus: %v", width, err)
			}
			if got := c.ModMulBig(new(big.Int), x, y); got.Cmp(wantMul) != 0 {
				t.Fatalf("%s: ModMulBig mismatch at %d bits:\n got %x\nwant %x", kernelNames[kern], width, got, wantMul)
			}
			if got := c.ExpBig(new(big.Int), x, e); got.Cmp(wantExp) != 0 {
				t.Fatalf("%s: ExpBig mismatch at %d bits e=%x:\n got %x\nwant %x", kernelNames[kern], width, e, got, wantExp)
			}
		}
	})
}
