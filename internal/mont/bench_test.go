package mont

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// Benchmarks compare the kernels against the math/big operations they
// replace at the production widths (n² of 1024/2048-bit keys at 2048 and
// 4096 bits, p² of their halves), once per kernel the host runs:
// BenchmarkMulREDC/cios/4096, BenchmarkMulREDC/ifma/4096, and so on.
// `make bench-mont` runs these.

func benchCtx(b *testing.B, bits int, kern kernel) (*Ctx, *big.Int, *big.Int) {
	b.Helper()
	m, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if err != nil {
		b.Fatal(err)
	}
	m.SetBit(m, bits-1, 1)
	m.SetBit(m, 0, 1)
	c := mustCtx(b, m, kern)
	x, _ := rand.Int(rand.Reader, m)
	y, _ := rand.Int(rand.Reader, m)
	return c, x, y
}

// benchWidths runs f per width, and per kernel the host runs when perKernel
// is set (as cios/4096, ifma/4096, …). The math/big references run once per
// width and take the context only for its modulus.
func benchWidths(b *testing.B, perKernel bool, f func(b *testing.B, bits int, kern kernel)) {
	for _, bits := range []int{1024, 2048, 3072, 4096} {
		if !perKernel {
			b.Run(fmt.Sprint(bits), func(b *testing.B) { f(b, bits, kernCIOS) })
			continue
		}
		for _, kern := range kernels() {
			b.Run(fmt.Sprintf("%s/%d", kernelNames[kern], bits), func(b *testing.B) { f(b, bits, kern) })
		}
	}
}

func BenchmarkMulREDC(b *testing.B) {
	benchWidths(b, true, func(b *testing.B, bits int, kern kernel) {
		c, x, y := benchCtx(b, bits, kern)
		xm, ym, z := c.NewNat(), c.NewNat(), c.NewNat()
		c.ToMont(xm, c.SetBig(xm, x))
		c.ToMont(ym, c.SetBig(ym, y))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.MulREDC(z, xm, ym)
		}
	})
}

func BenchmarkSqrREDC(b *testing.B) {
	benchWidths(b, true, func(b *testing.B, bits int, kern kernel) {
		c, x, _ := benchCtx(b, bits, kern)
		xm, z := c.NewNat(), c.NewNat()
		c.ToMont(xm, c.SetBig(xm, x))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SqrREDC(z, xm)
		}
	})
}

func BenchmarkBigMulMod(b *testing.B) {
	benchWidths(b, false, func(b *testing.B, bits int, kern kernel) {
		c, x, y := benchCtx(b, bits, kern)
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z.Mul(x, y)
			z.Mod(z, c.Mod())
		}
	})
}

func BenchmarkModMulBig(b *testing.B) {
	benchWidths(b, true, func(b *testing.B, bits int, kern kernel) {
		c, x, y := benchCtx(b, bits, kern)
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ModMulBig(z, x, y)
		}
	})
}

func BenchmarkExpWindow(b *testing.B) {
	benchWidths(b, true, func(b *testing.B, bits int, kern kernel) {
		c, x, _ := benchCtx(b, bits, kern)
		e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits/2)))
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ExpBig(z, x, e)
		}
	})
}

func BenchmarkBigExp(b *testing.B) {
	benchWidths(b, false, func(b *testing.B, bits int, kern kernel) {
		c, x, _ := benchCtx(b, bits, kern)
		e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits/2)))
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z.Exp(x, e, c.Mod())
		}
	})
}
