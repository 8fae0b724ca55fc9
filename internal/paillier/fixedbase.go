package paillier

import (
	"io"
	"math/big"
	"sync"

	"vfps/internal/mont"
)

// This file removes the encryption modexp wall. A Paillier encryption is
// c = g^m · r^n mod n²; with g = n+1 the g^m part is two mulmods, so ~99% of
// the cost is the randomizer r^n mod n². Two orthogonal accelerations apply:
//
//  1. Fixed-base windowing. Instead of a fresh uniform r per ciphertext,
//     sample one r_base ∈ Z_n* per pool, precompute a radix-2^w table of
//     powers of g_r = r_base^n mod n², and derive each randomizer as
//     g_r^e = (r_base^e)^n for a fresh random exponent e. With window w and
//     L-bit exponents the per-randomizer cost drops from a full modexp
//     (~1.5·L modular multiplications) to ⌈L/w⌉ multiplications against the
//     table — ~3× wall-clock at 1024-bit keys with w=6 (see BENCH_encrypt).
//     The randomizer then ranges over the cyclic subgroup ⟨r_base^n⟩ rather
//     than all n-th residues — the standard precomputation trade-off,
//     documented in SECURITY.md; set Window < 0 to keep uniform sampling.
//
//  2. CRT encryption for the key holder. When the private key's factors are
//     present, r^n mod n² splits into two half-width exponentiations mod p²
//     and q² (with exponents reduced mod p(p−1) and q(q−1)) recombined by
//     Garner — the same machinery as CRT decryption, ~1.6× serial. It
//     composes with the window tables: half-width tables mod p² and q².

// DefaultWindow is the fixed-base window width in bits. 6 balances table
// build time and memory (⌈L/6⌉·64 bigints, ~3 MB at 1024-bit keys) against
// the per-randomizer multiplication count.
const DefaultWindow = 6

// maxWindow caps the table width: beyond 8 bits the 2^w-entry rows cost more
// memory and build time than the shrinking multiplication count repays.
const maxWindow = 8

// exponentSlack is the extra exponent bits beyond |n| sampled for fixed-base
// randomizers, so the derived group element is statistically close to uniform
// over the subgroup ⟨r_base⟩ despite its order being unknown.
const exponentSlack = 64

// fbTable is a radix-2^w fixed-base exponentiation table:
// rows[j][d] = base^(d·2^(j·w)) mod m. Exponentiation by an L-bit exponent is
// then a product of ⌈L/w⌉ table entries — no squarings, no full modexp. The
// table is read-only after newFBTable, so concurrent exp calls share it.
//
// With a Montgomery context the entries are stored in Montgomery form
// (flattened per row, entry d at mrows[j][d·k:(d+1)·k]): since
// MulREDC(a·R, b·R) = (a·b)·R, Montgomery-form entries chain through the
// whole per-window product with no per-step conversions, and the accumulator
// leaves Montgomery form exactly once at the end. That turns the table
// product — the windowed-encryption hot loop — from ⌈L/w⌉ divisions into
// ⌈L/w⌉ CIOS passes.
type fbTable struct {
	window int
	mod    *big.Int
	rows   [][]*big.Int // plain residues (mctx == nil)

	mctx  *mont.Ctx    // non-nil → Montgomery-form table
	mrows [][]big.Word // Montgomery-form rows, flattened
}

// newFBTable precomputes the table for exponents up to expBits bits; a
// non-nil ctx builds it in Montgomery form.
func newFBTable(base, mod *big.Int, expBits, window int, ctx *mont.Ctx) *fbTable {
	nRows := (expBits + window - 1) / window
	t := &fbTable{window: window, mod: mod, mctx: ctx}
	if ctx != nil {
		k := ctx.K()
		t.mrows = make([][]big.Word, nRows)
		cur := ctx.NewNat() // base^(2^(j·w)) in Montgomery form as j advances
		ctx.ToMont(cur, ctx.SetBig(cur, base))
		for j := 0; j < nRows; j++ {
			row := make([]big.Word, (1<<window)*k)
			copy(row[0:k], ctx.One())
			copy(row[k:2*k], cur)
			for d := 2; d < 1<<window; d++ {
				ctx.MulREDC(row[d*k:(d+1)*k], row[(d-1)*k:d*k], cur)
			}
			t.mrows[j] = row
			for s := 0; s < window; s++ {
				ctx.SqrREDC(cur, cur)
			}
		}
		return t
	}
	t.rows = make([][]*big.Int, nRows)
	cur := new(big.Int).Mod(base, mod) // base^(2^(j·w)) as j advances
	for j := 0; j < nRows; j++ {
		row := make([]*big.Int, 1<<window)
		row[0] = one
		row[1] = new(big.Int).Set(cur)
		for d := 2; d < len(row); d++ {
			row[d] = new(big.Int).Mul(row[d-1], cur)
			row[d].Mod(row[d], mod)
		}
		t.rows[j] = row
		for s := 0; s < window; s++ {
			cur.Mul(cur, cur)
			cur.Mod(cur, mod)
		}
	}
	return t
}

// exp computes base^e mod m as the product of one table entry per window.
func (t *fbTable) exp(e *big.Int) *big.Int {
	if t.mctx != nil {
		return t.expMont(e)
	}
	acc := new(big.Int).Set(one)
	for j := range t.rows {
		if d := t.digit(e, j); d != 0 {
			acc.Mul(acc, t.rows[j][d])
			acc.Mod(acc, t.mod)
		}
	}
	return acc
}

// expMont is exp over the Montgomery-form table: the accumulator stays in
// Montgomery form across every window and converts back exactly once.
func (t *fbTable) expMont(e *big.Int) *big.Int {
	ctx := t.mctx
	k := ctx.K()
	var accBuf [mont.MaxLimbs]big.Word
	acc := accBuf[:k]
	copy(acc, ctx.One())
	for j := range t.mrows {
		if d := t.digit(e, j); d != 0 {
			ctx.MulREDC(acc, acc, t.mrows[j][d*k:(d+1)*k])
		}
	}
	ctx.FromMont(acc, acc)
	return ctx.PutBig(new(big.Int), acc)
}

// digit extracts e's j-th base-2^w digit.
func (t *fbTable) digit(e *big.Int, j int) int {
	d := 0
	for b := 0; b < t.window; b++ {
		if e.Bit(j*t.window+b) == 1 {
			d |= 1 << b
		}
	}
	return d
}

// crtEnc caches the constants of CRT-accelerated randomizer production for a
// key holder: exponents n reduced mod λ(p²) and λ(q²), and the Garner
// recombination constant lifting (x mod p², x mod q²) back to mod n².
// Read-only after newCRTEnc.
type crtEnc struct {
	p2, q2 *big.Int // p², q²
	np, nq *big.Int // n mod p(p−1), n mod q(q−1)
	p2inv  *big.Int // (p²)⁻¹ mod q²

	cp2, cq2 *mont.Ctx // Montgomery contexts for p², q² (nil → stdlib)
}

// newCRTEnc derives the encryption-side CRT constants; nil when the key does
// not carry its factorisation.
func newCRTEnc(sk *PrivateKey) *crtEnc {
	if sk == nil || sk.P == nil || sk.Q == nil {
		return nil
	}
	p2 := new(big.Int).Mul(sk.P, sk.P)
	q2 := new(big.Int).Mul(sk.Q, sk.Q)
	// λ(p²) = p(p−1); r^n mod p² only needs n mod p(p−1) in the exponent.
	lp := new(big.Int).Mul(sk.P, new(big.Int).Sub(sk.P, one))
	lq := new(big.Int).Mul(sk.Q, new(big.Int).Sub(sk.Q, one))
	p2inv := new(big.Int).ModInverse(p2, q2)
	if p2inv == nil {
		return nil
	}
	return &crtEnc{
		p2: p2, q2: q2,
		np: new(big.Int).Mod(sk.N, lp), nq: new(big.Int).Mod(sk.N, lq),
		p2inv: p2inv,
		cp2:   sk.newMontCtx(p2), cq2: sk.newMontCtx(q2),
	}
}

// useMont reports whether this key's CRT-encryption paths run the Montgomery
// kernel (both half-width contexts available).
func (e *crtEnc) useMont() bool {
	return e.cp2 != nil && e.cq2 != nil
}

// combine lifts (xp mod p², xq mod q²) to mod n² by Garner.
func (e *crtEnc) combine(xp, xq *big.Int) *big.Int {
	u := new(big.Int).Sub(xq, xp)
	if e.useMont() {
		e.cq2.ModMulBig(u, u, e.p2inv)
	} else {
		u.Mul(u, e.p2inv)
		u.Mod(u, e.q2)
	}
	u.Mul(u, e.p2)
	return u.Add(u, xp)
}

// exp computes r^n mod n² through the two half-width moduli. The
// exponentiations stay on big.Int.Exp — already a Montgomery ladder
// internally (DESIGN.md §12) — while combine's Garner multiply routes through
// the kernel.
func (e *crtEnc) exp(r *big.Int) *big.Int {
	xp := new(big.Int).Mod(r, e.p2)
	xp.Exp(xp, e.np, e.p2)
	xq := new(big.Int).Mod(r, e.q2)
	xq.Exp(xq, e.nq, e.q2)
	return e.combine(xp, xq)
}

// rnSource produces encryption randomizers r^n mod n², picking the fastest
// strategy available at construction: fixed-base window tables (optionally in
// the CRT domain for a key holder), CRT exponentiation, or the classic
// uniform-r modexp. Entropy reads and the lazy table build are serialised
// internally; the table products run outside the lock, so concurrent
// producers scale.
type rnSource struct {
	pk      *PublicKey
	enc     *crtEnc // non-nil → CRT production (key holder)
	window  int     // <= 0 → classic uniform sampling
	expBits int

	mu     sync.Mutex
	built  bool
	tab    *fbTable // plain window table mod n² (nil in CRT mode)
	tp, tq *fbTable // CRT window tables mod p², q²
}

// newRnSource builds a source for pk. window 0 selects DefaultWindow,
// negative disables fixed-base derivation; sk optionally enables the CRT
// path. The window tables are built lazily on first use (and rebuilt never),
// so construction is cheap and a pool's background workers absorb the
// one-time build cost off the caller's latency path.
func newRnSource(pk *PublicKey, sk *PrivateKey, window int) *rnSource {
	if window == 0 {
		window = DefaultWindow
	}
	if window > maxWindow {
		window = maxWindow
	}
	return &rnSource{
		pk:      pk,
		enc:     newCRTEnc(sk),
		window:  window,
		expBits: pk.N.BitLen() + exponentSlack,
	}
}

// build samples r_base, computes g_r = r_base^n mod n² and precomputes the
// window tables. Called with s.mu held; an entropy failure leaves the source
// unbuilt so the next call retries.
func (s *rnSource) build(random io.Reader) error {
	rb, err := s.pk.sampleR(random)
	if err != nil {
		return err
	}
	var gr *big.Int
	if s.enc != nil {
		gr = s.enc.exp(rb)
		var cp2, cq2 *mont.Ctx
		if s.enc.useMont() {
			cp2, cq2 = s.enc.cp2, s.enc.cq2
		}
		s.tp = newFBTable(gr, s.enc.p2, s.expBits, s.window, cp2)
		s.tq = newFBTable(gr, s.enc.q2, s.expBits, s.window, cq2)
	} else {
		gr = new(big.Int).Exp(rb, s.pk.N, s.pk.N2)
		s.tab = newFBTable(gr, s.pk.N2, s.expBits, s.window, s.pk.montN2())
	}
	s.built = true
	return nil
}

// sampleExp draws a uniform non-zero expBits-bit exponent. Called with s.mu
// held (the entropy source may not be concurrency safe).
func (s *rnSource) sampleExp(random io.Reader) (*big.Int, error) {
	buf := make([]byte, (s.expBits+7)/8)
	for {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, err
		}
		e := new(big.Int).SetBytes(buf)
		if s.expBits%8 != 0 {
			e.Rsh(e, uint(8-s.expBits%8))
		}
		// e = 0 would yield the identity randomizer (an unblinded
		// ciphertext); probability 2^-expBits, but reject it anyway.
		if e.Sign() != 0 {
			return e, nil
		}
	}
}

// value produces one randomizer r^n mod n².
func (s *rnSource) value(random io.Reader) (*big.Int, error) {
	if s.window <= 0 {
		s.mu.Lock()
		r, err := s.pk.sampleR(random)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if s.enc != nil {
			return s.enc.exp(r), nil
		}
		return r.Exp(r, s.pk.N, s.pk.N2), nil
	}
	s.mu.Lock()
	if !s.built {
		if err := s.build(random); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	e, err := s.sampleExp(random)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if s.enc != nil {
		return s.enc.combine(s.tp.exp(e), s.tq.exp(e)), nil
	}
	return s.tab.exp(e), nil
}
