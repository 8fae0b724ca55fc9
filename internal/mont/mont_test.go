package mont

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"
)

// randOdd returns a random odd modulus of exactly the given bit length.
func randOdd(t testing.TB, bitLen int) *big.Int {
	t.Helper()
	m, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bitLen)))
	if err != nil {
		t.Fatal(err)
	}
	m.SetBit(m, bitLen-1, 1)
	m.SetBit(m, 0, 1)
	return m
}

func randMod(t testing.TB, m *big.Int) *big.Int {
	t.Helper()
	x, err := rand.Int(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// kernels lists the representations this CPU runs: CIOS everywhere, IFMA
// where NewCtx would choose it.
func kernels() []kernel {
	if hasIFMA {
		return []kernel{kernCIOS, kernIFMA}
	}
	return []kernel{kernCIOS}
}

var kernelNames = [...]string{kernCIOS: "cios", kernIFMA: "ifma"}

// forEachKernel runs f as one subtest per kernel the host has.
func forEachKernel(t *testing.T, f func(t *testing.T, kern kernel)) {
	for _, kern := range kernels() {
		t.Run(kernelNames[kern], func(t *testing.T) { f(t, kern) })
	}
}

// mustCtx builds a context for m on kern, falling back to CIOS when m is too
// wide for the IFMA kernels (as NewCtx does).
func mustCtx(t testing.TB, m *big.Int, kern kernel) *Ctx {
	t.Helper()
	if kern == kernIFMA {
		kern = kernelFor(m)
	}
	c, err := newCtx(m, kern)
	if err != nil {
		t.Fatalf("%d-bit modulus: %v", m.BitLen(), err)
	}
	return c
}

// testWidths exercises word-aligned and straddling widths, including the
// single-limb edge and the production Paillier widths (n² of 1024/2048-bit
// keys, p² of their halves).
var testWidths = []int{64, 65, 127, 128, 129, 512, 1024, 1027, 2048, 3072}

func TestMulREDCCrossCheck(t *testing.T) { forEachKernel(t, testMulREDCCrossCheck) }

func testMulREDCCrossCheck(t *testing.T, kern kernel) {
	for _, w := range testWidths {
		m := randOdd(t, w)
		c := mustCtx(t, m, kern)
		for i := 0; i < 8; i++ {
			x, y := randMod(t, m), randMod(t, m)
			xm, ym, zm := c.NewNat(), c.NewNat(), c.NewNat()
			c.ToMont(xm, c.SetBig(xm, x))
			c.ToMont(ym, c.SetBig(ym, y))
			c.MulREDC(zm, xm, ym)
			c.FromMont(zm, zm)
			got := c.PutBig(new(big.Int), zm)
			want := new(big.Int).Mul(x, y)
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d: MulREDC mismatch\n got %x\nwant %x", w, got, want)
			}
		}
	}
}

func TestSqrREDCCrossCheck(t *testing.T) { forEachKernel(t, testSqrREDCCrossCheck) }

func testSqrREDCCrossCheck(t *testing.T, kern kernel) {
	for _, w := range testWidths {
		m := randOdd(t, w)
		c := mustCtx(t, m, kern)
		for i := 0; i < 8; i++ {
			x := randMod(t, m)
			xm := c.NewNat()
			c.ToMont(xm, c.SetBig(xm, x))
			c.SqrREDC(xm, xm)
			c.FromMont(xm, xm)
			got := c.PutBig(new(big.Int), xm)
			want := new(big.Int).Mul(x, x)
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d: SqrREDC mismatch", w)
			}
		}
	}
}

// TestSqrREDCCarryRipple pins the reduction-row carry ripple: an all-ones
// modulus block drives saturated limbs where a non-rippling carry add-in
// silently drops bits (~2⁻⁶⁴ per row on random inputs, so random testing
// alone cannot be trusted to hit it).
func TestSqrREDCCarryRipple(t *testing.T) { forEachKernel(t, testSqrREDCCarryRipple) }

func testSqrREDCCarryRipple(t *testing.T, kern kernel) {
	for _, w := range []int{128, 512, 1024} {
		m := new(big.Int).Lsh(big.NewInt(1), uint(w))
		m.Sub(m, big.NewInt(1)) // 2^w − 1: every limb saturated
		c := mustCtx(t, m, kern)
		for i := 0; i < 64; i++ {
			x := randMod(t, m)
			xm := c.NewNat()
			c.ToMont(xm, c.SetBig(xm, x))
			c.SqrREDC(xm, xm)
			c.FromMont(xm, xm)
			got := c.PutBig(new(big.Int), xm)
			want := new(big.Int).Mul(x, x)
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d iter %d: saturated-modulus square mismatch", w, i)
			}
		}
	}
}

func TestExpWindowCrossCheck(t *testing.T) { forEachKernel(t, testExpWindowCrossCheck) }

func testExpWindowCrossCheck(t *testing.T, kern kernel) {
	for _, w := range []int{64, 129, 512, 1024, 2048, 4096} {
		m := randOdd(t, w)
		c := mustCtx(t, m, kern)
		exps := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			big.NewInt(65537),
			randMod(t, m),
			new(big.Int).Sub(m, big.NewInt(1)),
		}
		x := randMod(t, m)
		for _, e := range exps {
			got := c.ExpBig(new(big.Int), x, e)
			want := new(big.Int).Exp(x, e, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d e=%x: ExpWindow mismatch", w, e)
			}
		}
	}
}

func TestModMulBigAndAliasing(t *testing.T) { forEachKernel(t, testModMulBigAndAliasing) }

func testModMulBigAndAliasing(t *testing.T, kern kernel) {
	m := randOdd(t, 1024)
	c := mustCtx(t, m, kern)
	x, y := randMod(t, m), randMod(t, m)
	want := new(big.Int).Mul(x, y)
	want.Mod(want, m)
	if got := c.ModMulBig(new(big.Int), x, y); got.Cmp(want) != 0 {
		t.Fatal("ModMulBig mismatch")
	}
	// z aliasing x, and a negative operand through the cold reduction path.
	z := new(big.Int).Set(x)
	if c.ModMulBig(z, z, y); z.Cmp(want) != 0 {
		t.Fatal("ModMulBig aliased mismatch")
	}
	neg := new(big.Int).Sub(x, m) // ≡ x mod m, negative
	if got := c.ModMulBig(new(big.Int), neg, y); got.Cmp(want) != 0 {
		t.Fatal("ModMulBig negative-operand mismatch")
	}
}

// TestRPow checks RPow against the context's own R, whatever its radix:
// R mod m is PutBig(One()).
func TestRPow(t *testing.T) { forEachKernel(t, testRPow) }

func testRPow(t *testing.T, kern kernel) {
	m := randOdd(t, 512)
	c := mustCtx(t, m, kern)
	R := c.PutBig(new(big.Int), c.One())
	for j := 1; j <= 9; j++ {
		want := new(big.Int).Exp(R, big.NewInt(int64(j)), m)
		got := c.PutBig(new(big.Int), c.RPow(j))
		if got.Cmp(want) != 0 {
			t.Fatalf("RPow(%d) mismatch", j)
		}
	}
	// The documented fold contract: t REDC folds of plain residues leave a
	// R^(−t) deficit that one multiply against RPow(t+1) repairs.
	vals := make([]*big.Int, 5)
	want := big.NewInt(1)
	for i := range vals {
		vals[i] = randMod(t, m)
		want.Mul(want, vals[i])
		want.Mod(want, m)
	}
	acc := c.SetBig(c.NewNat(), vals[0])
	op := c.NewNat()
	for _, v := range vals[1:] {
		c.MulREDC(acc, acc, c.SetBig(op, v))
	}
	c.MulREDC(acc, acc, c.RPow(len(vals)))
	if got := c.PutBig(new(big.Int), acc); got.Cmp(want) != 0 {
		t.Fatal("deficit-repair fold mismatch")
	}
}

func TestNewCtxRejects(t *testing.T) {
	for _, m := range []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(10), // even
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), (MaxLimbs+1)*64), big.NewInt(1)),
	} {
		if _, err := NewCtx(m); err == nil {
			t.Fatalf("NewCtx(%v) accepted an invalid modulus", m)
		}
	}
}

func TestCtxForCache(t *testing.T) {
	m := randOdd(t, 256)
	a, b := CtxFor(m), CtxFor(m)
	if a == nil || a != b {
		t.Fatal("CtxFor did not return the shared context for the same pointer")
	}
	even := big.NewInt(8)
	if CtxFor(even) != nil || CtxFor(even) != nil {
		t.Fatal("CtxFor accepted an even modulus")
	}
}

// TestAllocsSteadyState is the allocation-count regression gate: MulREDC,
// SqrREDC, ExpWindow and a warm ModMulBig must run the steady state entirely
// on the stack, on every kernel.
func TestAllocsSteadyState(t *testing.T) { forEachKernel(t, testAllocsSteadyState) }

func testAllocsSteadyState(t *testing.T, kern kernel) {
	m := randOdd(t, 2048) // n² width of a 1024-bit key
	c := mustCtx(t, m, kern)
	x, y, z := c.NewNat(), c.NewNat(), c.NewNat()
	c.ToMont(x, c.SetBig(x, randMod(t, m)))
	c.ToMont(y, c.SetBig(y, randMod(t, m)))
	e := randMod(t, new(big.Int).Lsh(big.NewInt(1), 256))
	if n := testing.AllocsPerRun(100, func() { c.MulREDC(z, x, y) }); n != 0 {
		t.Fatalf("MulREDC allocates %.1f objects per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.SqrREDC(z, x) }); n != 0 {
		t.Fatalf("SqrREDC allocates %.1f objects per op", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.ExpWindow(z, x, e) }); n != 0 {
		t.Fatalf("ExpWindow allocates %.1f objects per op", n)
	}
	a, b := randMod(t, m), randMod(t, m)
	acc := c.ModMulBig(new(big.Int), a, b)
	if n := testing.AllocsPerRun(100, func() { c.ModMulBig(acc, acc, b) }); n != 0 {
		t.Fatalf("ModMulBig allocates %.1f objects per op", n)
	}
}

func TestAddMulVVWGoVsAsm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		z1 := make([]big.Word, n)
		z2 := make([]big.Word, n)
		x := make([]big.Word, n)
		for i := range x {
			x[i] = ^big.Word(0) - big.Word(i)
			z1[i] = big.Word(i) * 0x9e3779b9
			z2[i] = z1[i]
		}
		y := ^big.Word(0)
		c1 := addMulVVWGo(z1, x, y)
		c2 := addMulVVW(z2, x, y)
		if c1 != c2 {
			t.Fatalf("n=%d: carry mismatch %x vs %x", n, c1, c2)
		}
		for i := range z1 {
			if z1[i] != z2[i] {
				t.Fatalf("n=%d limb %d: %x vs %x", n, i, z1[i], z2[i])
			}
		}
	}
}

// natValue reads x as the integer its limbs spell in c's radix, without
// reducing it: the kernels' un-reduced outputs are visible this way.
func natValue(c *Ctx, x Nat) *big.Int {
	radix := uint(bits.UintSize)
	if c.kern == kernIFMA {
		radix = 52
	}
	v := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		v.Lsh(v, radix)
		v.Add(v, new(big.Int).SetUint64(uint64(x[i])))
	}
	return v
}

// TestAMMBoundaries drives the IFMA kernel at the edges of its bound: for
// every generated width L, moduli of exactly 52L−2 bits (R = 2^(52L) only
// just above 4m), random and all-ones, with operands of 2m−1. Each product
// must stay below 2m in normalised limbs and be congruent to x·y·R⁻¹; a
// modulus one bit wider must move to the next width. Then both kernels
// must give bit-identical plain residues at the 2048- and 4096-bit Paillier
// widths.
func TestAMMBoundaries(t *testing.T) {
	if !hasIFMA {
		t.Skip("CPU lacks AVX-512 IFMA")
	}
	for l := 8; l <= maxIFMALimbs; l += 8 {
		w := 52*l - 2
		allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(w)), big.NewInt(1))
		for _, m := range []*big.Int{randOdd(t, w), allOnes} {
			c := mustCtx(t, m, kernIFMA)
			if c.kern != kernIFMA || c.K() != l {
				t.Fatalf("%d-bit modulus: kernel %s with %d limbs, want ifma with %d", w, kernelNames[c.kern], c.K(), l)
			}
			R := new(big.Int).Lsh(big.NewInt(1), uint(52*l))
			rInv := new(big.Int).ModInverse(R, m)
			top := new(big.Int).Sub(new(big.Int).Lsh(m, 1), big.NewInt(1)) // 2m − 1
			for _, xy := range [][2]*big.Int{{top, top}, {top, randMod(t, m)}, {big.NewInt(0), top}, {m, top}} {
				x := c.load(c.NewNat(), xy[0])
				y := c.load(c.NewNat(), xy[1])
				z := c.NewNat()
				c.MulREDC(z, x, y)
				for i, limb := range z {
					if uint64(limb) > mask52 {
						t.Fatalf("%d-bit modulus: limb %d = %#x not normalised", w, i, limb)
					}
				}
				got := natValue(c, z)
				if got.Cmp(new(big.Int).Lsh(m, 1)) >= 0 {
					t.Fatalf("%d-bit modulus: AMM output not below 2m", w)
				}
				want := new(big.Int).Mul(xy[0], xy[1])
				want.Mul(want, rInv).Mod(want, m)
				if new(big.Int).Mod(got, m).Cmp(want) != 0 {
					t.Fatalf("%d-bit modulus: AMM output not x·y·R⁻¹ mod m", w)
				}
				if c.PutBig(new(big.Int), z).Cmp(want) != 0 {
					t.Fatalf("%d-bit modulus: PutBig did not reduce the AMM output", w)
				}
			}
		}
		wider := randOdd(t, w+1)
		if c := mustCtx(t, wider, kernIFMA); c.kern == kernIFMA && c.K() == l {
			t.Fatalf("%d-bit modulus kept %d limbs, R would not exceed 4m", w+1, l)
		}
	}
	if c, _ := NewCtx(randOdd(t, 52*maxIFMALimbs-1)); c.kern != kernCIOS {
		t.Fatal("a modulus wider than the generated kernels must run CIOS")
	}
	for _, w := range []int{2048, 4096} {
		m := randOdd(t, w)
		ifma, cios := mustCtx(t, m, kernIFMA), mustCtx(t, m, kernCIOS)
		x, y, e := randMod(t, m), randMod(t, m), randMod(t, m)
		for _, op := range []struct {
			name string
			f    func(c *Ctx) *big.Int
		}{
			{"ModMulBig", func(c *Ctx) *big.Int { return c.ModMulBig(new(big.Int), x, y) }},
			{"ExpBig", func(c *Ctx) *big.Int { return c.ExpBig(new(big.Int), x, e) }},
			{"Exp", func(c *Ctx) *big.Int { return c.Exp(new(big.Int), x, e) }},
			{"fold", func(c *Ctx) *big.Int { // montSum's shape: plain residues, one RPow repair
				acc, op := c.SetBig(c.NewNat(), x), c.NewNat()
				c.MulREDC(acc, acc, c.SetBig(op, y))
				c.MulREDC(acc, acc, c.SetBig(op, e))
				c.MulREDC(acc, acc, c.RPow(3))
				return c.PutBig(new(big.Int), acc)
			}},
			{"squarings", func(c *Ctx) *big.Int { // ToMont, a SqrREDC ladder, FromMont
				z := c.SetBig(c.NewNat(), x)
				c.ToMont(z, z)
				for i := 0; i < 16; i++ {
					c.SqrREDC(z, z)
				}
				c.FromMont(z, z)
				return c.PutBig(new(big.Int), z)
			}},
		} {
			a, b := op.f(ifma), op.f(cios)
			if a.Cmp(b) != 0 {
				t.Fatalf("%d bits: %s differs between the IFMA and CIOS kernels", w, op.name)
			}
		}
	}
}

// osReportsIFMA reads the CPU flags Linux reports in /proc/cpuinfo, which
// lists AVX-512 features only when the kernel also saves their state; on
// other systems it falls back to the package's own detection.
func osReportsIFMA() bool {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return hasIFMA
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			f := strings.Fields(flags)
			return slices.Contains(f, "avx512f") && slices.Contains(f, "avx512ifma") && slices.Contains(f, "bmi2")
		}
	}
	return hasIFMA
}

// TestCtxForRunsIFMAAtPaillierWidths fails if an IFMA host silently runs a
// 2048-bit key's n² (4096 bits) or its p², q² (2048 bits) on CIOS, whether
// because detection missed the CPU feature or because the width fell
// outside the generated kernels.
func TestCtxForRunsIFMAAtPaillierWidths(t *testing.T) {
	if !osReportsIFMA() {
		t.Skip("CPU lacks AVX-512 IFMA")
	}
	if !hasIFMA {
		t.Fatal("the OS reports AVX512F, AVX512_IFMA and BMI2 but CPUID detection did not")
	}
	for _, w := range []int{4096, 4095, 2048, 2047} {
		if c := CtxFor(randOdd(t, w)); c == nil || c.kern != kernIFMA {
			t.Fatalf("CtxFor of a %d-bit modulus fell back from the IFMA kernel", w)
		}
	}
}
