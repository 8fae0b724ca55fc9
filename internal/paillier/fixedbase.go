package paillier

import (
	"io"
	"math/big"
	"math/bits"
	"sync"

	"vfps/internal/mont"
)

// This file removes the encryption modexp wall. A Paillier encryption is
// c = g^m · r^n mod n²; with g = n+1 the g^m part is two mulmods, so ~99% of
// the cost is the randomizer r^n mod n². Two orthogonal accelerations apply:
//
//  1. Fixed-base exponentiation. Instead of a fresh uniform r per
//     ciphertext, sample one r_base ∈ Z_n* per pool, precompute a Lim–Lee
//     comb table of powers of g_r = r_base^n mod n², and derive each
//     randomizer as g_r^e = (r_base^e)^n for a fresh random exponent e. For
//     L-bit exponents the per-randomizer cost drops from a full modexp
//     (~1.5·L modular multiplications) to (b−1) squarings and v·b products
//     against the table — 17 + 198 at 2048-bit keys and w=6, where a radix-2^w
//     table of the same size would spend 352 products. The randomizer then
//     ranges over the cyclic subgroup ⟨r_base^n⟩ rather than all n-th
//     residues — the standard precomputation trade-off, documented in
//     SECURITY.md; set Window < 0 to keep uniform sampling.
//
//  2. CRT encryption for the key holder. When the private key's factors are
//     present, r^n mod n² splits into two half-width exponentiations mod p²
//     and q² (with exponents reduced mod p(p−1) and q(q−1)) recombined by
//     Garner — the same machinery as CRT decryption, ~1.6× serial. It
//     composes with the comb tables: half-width tables mod p² and q².

// DefaultWindow is the fixed-base window width in bits. The width sets the
// table's memory budget: the comb gets as many entries as a radix-2^w table
// would hold, ⌈L/w⌉·2^w (22 528 entries, 11.5 MB at 2048-bit keys for w=6),
// which balances table build time and memory against the per-randomizer
// operation count.
const DefaultWindow = 6

// maxWindow caps the width: beyond 8 bits the table costs more memory and
// build time than the shrinking operation count repays.
const maxWindow = 8

// exponentSlack is the extra exponent bits beyond |n| sampled for fixed-base
// randomizers, so the derived group element is statistically close to uniform
// over the subgroup ⟨r_base⟩ despite its order being unknown.
const exponentSlack = 64

// fbTable is a Lim–Lee fixed-base comb for base^e mod m. The exponent is cut
// into h·v consecutive b-bit pieces, piece i·v+j being tooth i of block j, and
// the table holds, for every block j and every h-bit tooth mask u,
//
//	G[j][u] = Π_{i∈u} base^(2^((i·v+j)·b)) mod m.
//
// Column c of block j — bit c of each of its h pieces — then selects one
// entry, and base^e is Horner's rule over the columns from c = b−1 down to 0:
// square the accumulator, multiply in G[j][u_{j,c}] for every block. That is
// b−1 squarings and at most v·b products, no full modexp. A radix-2^w table
// has the b = 1 shape (h = w, v = ⌈L/w⌉: one product per block, no
// squarings). The table is read-only after newFBTable, so concurrent exp
// calls share it.
//
// With a Montgomery context the entries are stored in Montgomery form (entry
// (j, u) at ments[j][u·k:][:k]): since MulREDC(a·R, b·R) = (a·b)·R, the
// accumulator chains through every squaring and product with no per-step
// conversions and leaves Montgomery form exactly once at the end.
type fbTable struct {
	h, v, b int // teeth per block, blocks, columns
	mod     *big.Int
	ents    [][]*big.Int // plain residues (mctx == nil), entry (j, u) at ents[j][u]

	mctx  *mont.Ctx    // non-nil → Montgomery-form table
	ments [][]big.Word // Montgomery-form entries, one flattened slice per block
}

// combShape derives the comb for expBits-bit exponents from the memory of a
// width-window radix table, ⌈L/w⌉·2^w entries: of the shapes with
// v·2^h ≤ that budget it returns the one with the fewest sequential
// operations, (b−1) + v·b, and on a tie the one with the fewest squarings.
// The radix shape (h = w, v = ⌈L/w⌉, b = 1) is among the candidates, so the
// comb never costs more than the radix table it replaces.
func combShape(expBits, window int) (h, v, b int) {
	budget := (expBits + window - 1) / window << window
	best := -1
	for th := 1; 1<<th <= budget; th++ {
		a := (expBits + th - 1) / th // bits per tooth
		for tv := 1; tv<<th <= budget && tv <= a; tv++ {
			tb := (a + tv - 1) / tv
			if cost := tb - 1 + tv*tb; best < 0 || cost < best || cost == best && tb < b {
				best, h, v, b = cost, th, tv, tb
			}
		}
	}
	return h, v, b
}

// newFBTable precomputes the comb for exponents below 2^expBits within the
// memory budget of a width-window radix table; a non-nil ctx builds it in
// Montgomery form. The h·v tooth bases base^(2^(q·b)) come from one running
// squaring, and every other entry is one product of two earlier ones. Each
// block is its own allocation, made only when the previous one is filled, so
// the garbage collector paces with the build as it did with the radix rows
// instead of sizing its heap goal around the whole table at once.
func newFBTable(base, mod *big.Int, expBits, window int, ctx *mont.Ctx) *fbTable {
	h, v, b := combShape(expBits, window)
	t := &fbTable{h: h, v: v, b: b, mod: mod, mctx: ctx}
	if ctx != nil {
		k := ctx.K()
		bases := make([]big.Word, h*v*k) // tooth base q at bases[q·k:][:k]
		ctx.ToMont(bases[:k], ctx.SetBig(bases[:k], base))
		for q := 1; q < h*v; q++ {
			cur := bases[q*k:][:k]
			copy(cur, bases[(q-1)*k:][:k])
			for s := 0; s < b; s++ {
				ctx.SqrREDC(cur, cur)
			}
		}
		t.ments = make([][]big.Word, v)
		for j := range t.ments {
			blk := make([]big.Word, k<<h)
			copy(blk[:k], ctx.One())
			for i := 0; i < h; i++ {
				copy(blk[k<<i:][:k], bases[(i*v+j)*k:][:k])
			}
			for u := 3; u < 1<<h; u++ {
				if low := u & -u; low != u {
					ctx.MulREDC(blk[u*k:][:k], blk[(u^low)*k:][:k], blk[low*k:][:k])
				}
			}
			t.ments[j] = blk
		}
		return t
	}
	bases := make([]*big.Int, h*v)
	bases[0] = new(big.Int).Mod(base, mod)
	for q := 1; q < h*v; q++ {
		cur := new(big.Int).Set(bases[q-1])
		for s := 0; s < b; s++ {
			cur.Mul(cur, cur)
			cur.Mod(cur, mod)
		}
		bases[q] = cur
	}
	t.ents = make([][]*big.Int, v)
	for j := range t.ents {
		blk := make([]*big.Int, 1<<h)
		blk[0] = one
		for i := 0; i < h; i++ {
			blk[1<<i] = bases[i*v+j]
		}
		for u := 3; u < 1<<h; u++ {
			if low := u & -u; low != u {
				blk[u] = new(big.Int).Mul(blk[u^low], blk[low])
				blk[u].Mod(blk[u], mod)
			}
		}
		t.ents[j] = blk
	}
	return t
}

// exp computes base^e mod m for 0 ≤ e < 2^expBits by the comb.
func (t *fbTable) exp(e *big.Int) *big.Int {
	ew := e.Bits()
	if ctx := t.mctx; ctx != nil {
		k := ctx.K()
		var accBuf [mont.MaxLimbs]big.Word
		acc := accBuf[:k]
		copy(acc, ctx.One())
		for c := t.b - 1; c >= 0; c-- {
			if c < t.b-1 {
				ctx.SqrREDC(acc, acc)
			}
			for j := 0; j < t.v; j++ {
				if u := t.teeth(ew, j, c); u != 0 {
					ctx.MulREDC(acc, acc, t.ments[j][u*k:][:k])
				}
			}
		}
		ctx.FromMont(acc, acc)
		return ctx.PutBig(new(big.Int), acc)
	}
	acc := new(big.Int).Set(one)
	for c := t.b - 1; c >= 0; c-- {
		if c < t.b-1 {
			acc.Mul(acc, acc)
			acc.Mod(acc, t.mod)
		}
		for j := 0; j < t.v; j++ {
			if u := t.teeth(ew, j, c); u != 0 {
				acc.Mul(acc, t.ents[j][u])
				acc.Mod(acc, t.mod)
			}
		}
	}
	return acc
}

// teeth gathers column c of block j from the exponent's words ew: bit i of
// the result is bit c of piece i·v+j.
func (t *fbTable) teeth(ew []big.Word, j, c int) int {
	u := 0
	for i := 0; i < t.h; i++ {
		p := (i*t.v+j)*t.b + c
		if w := p / bits.UintSize; w < len(ew) && ew[w]>>(p%bits.UintSize)&1 != 0 {
			u |= 1 << i
		}
	}
	return u
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
// strategy available at construction: fixed-base comb tables (optionally in
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
	tab    *fbTable // plain comb table mod n² (nil in CRT mode)
	tp, tq *fbTable // CRT comb tables mod p², q²
}

// newRnSource builds a source for pk. window 0 selects DefaultWindow,
// negative disables fixed-base derivation; sk optionally enables the CRT
// path. The comb tables are built lazily on first use (and rebuilt never),
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
// comb tables. Called with s.mu held; an entropy failure leaves the source
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
