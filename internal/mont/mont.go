// Package mont implements fixed-width Montgomery modular arithmetic for the
// Paillier hot paths: a per-modulus context of precomputed constants
// (Ctx{mod, n0inv, rr}), a multiply-reduce (MulREDC) and squaring (SqrREDC)
// with zero steady-state heap allocation, windowed exponentiation over
// Montgomery-form operands (ExpWindow), and conversions in and out of
// Montgomery form. See DESIGN.md §12 for the representations and the
// recurrences; SECURITY.md documents why the kernels' variable-time final
// subtraction is acceptable in this threat model.
//
// A context runs one of two representations, chosen by NewCtx from the CPU:
//
//   - CIOS: K() 64-bit limbs, R = 2^(64·K()), a CIOS multiply on MULX/ADX
//     rows (or portable Go) with one conditional subtraction per product, so
//     every result is fully reduced. Every CPU runs it.
//   - IFMA: K() = 8·⌈⌈(bits+2)/52⌉/8⌉ radix-2^52 limbs, R = 2^(52·K()) > 4m,
//     an AVX-512 IFMA almost-Montgomery multiply (Gueron–Krasnov): operands
//     below 2m give a product below 2m with no subtraction, and PutBig makes
//     the one final conditional subtraction. Chosen when the CPU reports
//     AVX512F and AVX512_IFMA, the OS saves ZMM state, and the width fits the
//     generated kernels (moduli up to 4158 bits).
//
// Values are fixed-width little-endian limb vectors (Nat) of exactly
// Ctx.K() words. A residue x is in Montgomery form when the vector holds a
// value congruent to x·R mod m; MulREDC computes a value congruent to
// a·b·R⁻¹ mod m, so Montgomery-form operands chain through products with no
// per-step conversions. Plain residues can also be folded directly — each
// REDC then contributes one R⁻¹ deficit, repaired at the end by a single
// multiply with a precomputed power of R (RPow). Every method's contract is
// stated against the context's own R; callers never see the limb radix.
package mont

import (
	"errors"
	"math/big"
	"math/bits"
	"sync"
)

// MaxLimbs bounds the supported modulus width: 130 words covers n² of a
// 4096-bit Paillier key (128 limbs) with slack. The fixed bound lets every
// intermediate buffer live on the stack, which is what makes the hot path
// allocation-free. IFMA contexts (at most maxIFMALimbs) stay within it too.
const MaxLimbs = 130

// mask52 keeps the low 52 bits of a radix-2^52 limb.
const mask52 = 1<<52 - 1

// lo52 is x mod 2^52. The IFMA representation exists only on 64-bit words;
// the uint64 detour keeps 32-bit builds compiling.
func lo52(x big.Word) big.Word { return big.Word(uint64(x) & mask52) }

// Nat is a fixed-width little-endian limb vector of exactly Ctx.K() words.
// Unlike big.Int it is never normalised: high zero limbs stay in place.
type Nat []big.Word

// kernel names a context's representation.
type kernel uint8

const (
	kernCIOS kernel = iota // 64-bit limbs, CIOS rows, fully reduced results
	kernIFMA               // radix-2^52 limbs, AVX-512 IFMA AMM, results < 2m
)

// Ctx carries the precomputed per-modulus constants. All fields are
// read-only after NewCtx, so any number of goroutines may share one Ctx;
// RPow's lazy table has its own lock.
type Ctx struct {
	kern kernel
	k    int      // limb count
	mod  Nat      // the modulus m
	n0   big.Word // -m⁻¹ mod the limb radix (the per-row quotient factor)
	rr   Nat      // R² mod m (Montgomery conversion factor)
	one  Nat      // R mod m (the Montgomery form of 1)
	m    *big.Int // the modulus as a big.Int (read-only)

	rpowMu sync.Mutex
	rpows  []Nat // rpows[j] = R^(j+1) mod m, plain residues, grown on demand
}

// NewCtx precomputes a Montgomery context for the odd modulus m, on the
// IFMA representation when this CPU runs it at m's width and on CIOS
// otherwise.
func NewCtx(m *big.Int) (*Ctx, error) { return newCtx(m, kernelFor(m)) }

// kernelFor is the representation NewCtx gives m.
func kernelFor(m *big.Int) kernel {
	if m != nil && hasIFMA && ifmaLimbs(m.BitLen()) <= maxIFMALimbs {
		return kernIFMA
	}
	return kernCIOS
}

// ifmaLimbs is the IFMA width for a bitLen-bit modulus: enough radix-2^52
// limbs that R > 4m, rounded up to whole 8-limb ZMM registers.
func ifmaLimbs(bitLen int) int {
	return ((bitLen+2+51)/52 + 7) / 8 * 8
}

// newCtx builds the context on the given representation. Tests force
// kernCIOS through it to keep the 64-bit kernel covered on IFMA hosts.
func newCtx(m *big.Int, kern kernel) (*Ctx, error) {
	if m == nil || m.Sign() <= 0 || m.Bit(0) == 0 {
		return nil, errors.New("mont: modulus must be positive and odd")
	}
	k := (m.BitLen() + bits.UintSize - 1) / bits.UintSize
	if k > MaxLimbs {
		return nil, errors.New("mont: modulus exceeds MaxLimbs")
	}
	rbits := k * bits.UintSize
	if kern == kernIFMA {
		k = ifmaLimbs(m.BitLen())
		rbits = 52 * k
	}
	c := &Ctx{kern: kern, k: k, m: m}
	c.mod = c.load(make(Nat, k), m)
	// n0 = -m⁻¹ mod 2^W by Newton iteration: each step doubles the number of
	// correct low bits, six steps cover 64-bit words from the 5-bit seed m₀.
	m0 := uint(m.Bits()[0])
	inv := m0
	for i := 0; i < 6; i++ {
		inv *= 2 - m0*inv
	}
	c.n0 = big.Word(-inv)
	if kern == kernIFMA {
		c.n0 = lo52(c.n0)
	}
	rr := new(big.Int).Lsh(big.NewInt(1), uint(2*rbits))
	c.rr = c.load(make(Nat, k), rr.Mod(rr, m))
	one := new(big.Int).Lsh(big.NewInt(1), uint(rbits))
	c.one = c.load(make(Nat, k), one.Mod(one, m))
	return c, nil
}

// ctxCache maps (*big.Int, kernel) → *Ctx by pointer identity. Moduli in
// this codebase (n², p², q²) are immutable once a key is built, so the
// pointer is a stable identity; the cache pins both the Ctx and its modulus
// for the process lifetime, a few KB per key.
var ctxCache sync.Map

type cacheKey struct {
	m    *big.Int
	cios bool
}

// CtxFor returns a shared context for m, keyed by pointer identity, or nil
// when m admits none (even, non-positive, or wider than MaxLimbs). Callers
// treat nil as "fall back to math/big".
func CtxFor(m *big.Int) *Ctx { return ctxFor(cacheKey{m: m}) }

// CIOSFor is CtxFor on the 64-bit CIOS representation whatever the CPU: the
// oracle the IFMA kernel is checked against, for tests outside this package.
func CIOSFor(m *big.Int) *Ctx { return ctxFor(cacheKey{m: m, cios: true}) }

func ctxFor(key cacheKey) *Ctx {
	if v, ok := ctxCache.Load(key); ok {
		c, _ := v.(*Ctx)
		return c
	}
	kern := kernCIOS
	if !key.cios {
		kern = kernelFor(key.m)
	}
	c, err := newCtx(key.m, kern)
	if err != nil {
		c = nil // cache the failure as a typed nil
	}
	ctxCache.Store(key, c)
	return c
}

// K returns the context's limb count; every Nat passed to this context must
// have exactly K limbs.
func (c *Ctx) K() int { return c.k }

// Mod returns the modulus (read-only).
func (c *Ctx) Mod() *big.Int { return c.m }

// One returns R mod m, the Montgomery form of 1. The returned Nat is shared
// and must not be written.
func (c *Ctx) One() Nat { return c.one }

// NewNat allocates a zero Nat of the context's width.
func (c *Ctx) NewNat() Nat { return make(Nat, c.k) }

// SetBig loads x into z as a fixed-width residue and returns z. Values
// outside [0, m) take a cold reduction path that allocates; hot-path callers
// pass reduced values.
func (c *Ctx) SetBig(z Nat, x *big.Int) Nat {
	if x.Sign() < 0 || x.Cmp(c.m) >= 0 {
		x = new(big.Int).Mod(x, c.m)
	}
	return c.load(z, x)
}

// load writes the non-negative x, which must fit the context's width, into
// z in the context's limb radix.
func (c *Ctx) load(z Nat, x *big.Int) Nat {
	w := x.Bits()
	if c.kern == kernCIOS {
		copy(z, w)
		clear(z[len(w):])
		return z
	}
	// Limb i holds bits [52i, 52i+52) of x: the tail of word 52i/64 and,
	// when that word runs out first, the head of the next one.
	for i := range z {
		off := 52 * i
		wi, sh := off/bits.UintSize, uint(off%bits.UintSize)
		var v big.Word
		if wi < len(w) {
			v = w[wi] >> sh
			if sh > 12 && wi+1 < len(w) {
				v |= w[wi+1] << (bits.UintSize - sh)
			}
		}
		z[i] = lo52(v)
	}
	return z
}

// PutBig stores the residue x into z, reusing z's limb storage when it has
// capacity (zero allocations steady-state), and returns z. An IFMA result
// below 2m gets its one conditional subtraction here, so z is always the
// reduced residue in [0, m).
func (c *Ctx) PutBig(z *big.Int, x Nat) *big.Int {
	if c.kern == kernCIOS {
		return z.SetBits(append(z.Bits()[:0], x...))
	}
	var db [MaxLimbs]big.Word
	d := db[:c.k]
	var borrow big.Word
	for i, xi := range x {
		t := xi - c.mod[i] - borrow
		d[i], borrow = lo52(t), t>>(bits.UintSize-1)
	}
	if borrow != 0 { // x < m
		copy(d, x)
	}
	// Word i holds bits [64i, 64i+64) of d, gathered from up to three limbs.
	n := (c.m.BitLen() + bits.UintSize - 1) / bits.UintSize
	out := z.Bits()
	if cap(out) < n {
		out = make([]big.Word, n)
	}
	out = out[:n]
	for i := range out {
		off := bits.UintSize * i
		li, sh := off/52, uint(off%52)
		v := d[li] >> sh
		for got := 52 - sh; got < bits.UintSize && li+1 < len(d); got += 52 {
			li++
			v |= d[li] << got
		}
		out[i] = v
	}
	return z.SetBits(out)
}

// ToMont converts the plain residue x to Montgomery form in z (z ≡ x·R mod
// m). z may alias x.
func (c *Ctx) ToMont(z, x Nat) { c.MulREDC(z, x, c.rr) }

// FromMont converts the Montgomery-form x back to a plain residue in z
// (z ≡ x·R⁻¹ mod m, at most m, which PutBig reduces). z may alias x.
func (c *Ctx) FromMont(z, x Nat) {
	var ob [MaxLimbs]big.Word
	ob[0] = 1
	c.MulREDC(z, x, ob[:c.k])
}

// MulREDC computes z ≡ x·y·R⁻¹ (mod m). z, x and y must all be k limbs and
// below 2m; z may alias x and/or y. Zero heap allocations per call.
//
// On CIOS: k rows, each adding x[i]·y and then m·((T[i]·n0) mod 2^W) into a
// sliding window of the stack accumulator so the low limb cancels, followed
// by one conditional subtraction; z < m. On IFMA: the almost-Montgomery
// product of the generated kernel, with no subtraction; z < 2m.
func (c *Ctx) MulREDC(z, x, y Nat) {
	if c.kern == kernIFMA {
		amm(z, x, y, c.mod, c.n0)
		return
	}
	var tb [2*MaxLimbs + 1]big.Word
	k := c.k
	T := tb[: 2*k+1 : 2*k+1]
	m := c.mod
	n0 := c.n0
	for i := 0; i < k; i++ {
		c1 := addMulVVW(T[i:i+k], y, x[i])
		mm := T[i] * n0
		c2 := addMulVVW(T[i:i+k], m, mm)
		// Both row carries land on T[i+k]; the carry out of that add lands on
		// T[i+k+1], which no earlier row has written (row j touches only
		// T[j..j+k+1]), so the plain add-in cannot overflow.
		s, cc := bits.Add(uint(T[i+k]), uint(c1), 0)
		s2, cc2 := bits.Add(s, uint(c2), 0)
		T[i+k] = big.Word(s2)
		T[i+k+1] += big.Word(cc + cc2)
	}
	c.condSub(z, T)
}

// SqrREDC computes z ≡ x²·R⁻¹ (mod m) (on CIOS by SOS squaring: cross products, doubling,
// diagonal, then k reduction rows). One squaring costs roughly ¾ of a
// MulREDC; exponentiation is squaring-dominated, so the saving compounds.
// z may alias x. On IFMA it is the kernel's multiply of x by itself.
func (c *Ctx) SqrREDC(z, x Nat) {
	if c.kern == kernIFMA {
		amm(z, x, x, c.mod, c.n0)
		return
	}
	var tb [2*MaxLimbs + 1]big.Word
	k := c.k
	T := tb[: 2*k+1 : 2*k+1]
	// Cross products: T[i+j] += x[i]·x[j] over j > i. Row i's carry lands on
	// T[i+k], untouched by earlier rows (row j < i stops at T[j+k]).
	for i := 0; i < k-1; i++ {
		T[i+k] += addMulVVW(T[2*i+1:i+k], x[i+1:k], x[i])
	}
	// Double. x² < 2^(2kW), so the doubled cross sum fits 2k limbs and the
	// final carry out of T[2k-1] is zero.
	var carry big.Word
	for i := 0; i < 2*k; i++ {
		nc := T[i] >> (bits.UintSize - 1)
		T[i] = T[i]<<1 | carry
		carry = nc
	}
	// Diagonal: x[i]² added at T[2i], T[2i+1].
	var cc uint
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul(uint(x[i]), uint(x[i]))
		s0, c1 := bits.Add(uint(T[2*i]), lo, cc)
		s1, c2 := bits.Add(uint(T[2*i+1]), hi, c1)
		T[2*i], T[2*i+1] = big.Word(s0), big.Word(s1)
		cc = c2
	}
	T[2*k] += big.Word(cc)
	// Montgomery reduction rows. Unlike MulREDC, T above the row window
	// already holds live squaring data, so the row carry must ripple instead
	// of a single add-in (a saturated limb would otherwise drop the carry).
	m := c.mod
	n0 := c.n0
	for i := 0; i < k; i++ {
		mm := T[i] * n0
		c2 := addMulVVW(T[i:i+k], m, mm)
		s, b := bits.Add(uint(T[i+k]), uint(c2), 0)
		T[i+k] = big.Word(s)
		for idx := i + k + 1; b != 0 && idx <= 2*k; idx++ {
			s, b = bits.Add(uint(T[idx]), 0, b)
			T[idx] = big.Word(s)
		}
	}
	c.condSub(z, T)
}

// condSub finishes a REDC: the result T[k..2k] is < 2m with top bit T[2k];
// subtract m once when the value is ≥ m. Variable time, see SECURITY.md.
func (c *Ctx) condSub(z Nat, T []big.Word) {
	k := c.k
	m := c.mod
	var b uint
	for j := 0; j < k; j++ {
		var s uint
		s, b = bits.Sub(uint(T[k+j]), uint(m[j]), b)
		z[j] = big.Word(s)
	}
	if T[2*k] == 0 && b != 0 {
		copy(z, T[k:2*k])
	}
}

// RPow returns R^j mod m (j ≥ 1, below 2m) as a plain residue, growing a lazily built
// shared table. Folding t plain residues through t MulREDC calls leaves a
// R^(−t) deficit; one final MulREDC against RPow(t+1) repairs it. The
// returned Nat is shared and must not be written.
func (c *Ctx) RPow(j int) Nat {
	c.rpowMu.Lock()
	defer c.rpowMu.Unlock()
	for len(c.rpows) < j {
		next := make(Nat, c.k)
		if len(c.rpows) == 0 {
			copy(next, c.one) // R¹
		} else {
			c.MulREDC(next, c.rpows[len(c.rpows)-1], c.rr)
		}
		c.rpows = append(c.rpows, next)
	}
	return c.rpows[j-1]
}

// ModMulBig sets z = x·y mod m on plain big.Int residues through two REDC
// passes (one to multiply, one to strip the R⁻¹), reusing z's storage.
// Slightly faster than big.Int Mul+Mod and allocation-free steady-state.
// z may alias x or y.
func (c *Ctx) ModMulBig(z, x, y *big.Int) *big.Int {
	var xb, yb, t [MaxLimbs]big.Word
	k := c.k
	xn := c.SetBig(xb[:k], x)
	yn := c.SetBig(yb[:k], y)
	c.MulREDC(t[:k], xn, yn)
	c.MulREDC(xn, t[:k], c.rr)
	return c.PutBig(z, xn)
}
