// Package paillier implements the Paillier additively homomorphic
// cryptosystem on top of math/big.
//
// The paper's implementation uses the CKKS scheme via TenSEAL; the VFPS-SM
// protocol, however, only requires additive homomorphism — participants
// encrypt partial distances, the aggregation server sums ciphertexts, and the
// leader decrypts the totals. Paillier provides exactly that operation set
// with exact integer arithmetic, so it is used here as the stdlib-only
// substitute (see DESIGN.md §3).
//
// Supported operations:
//
//	Enc(m)                         encryption under the public key
//	Dec(c)                         decryption under the private key
//	AddCipher(c1, c2) = Enc(m1+m2) homomorphic addition
//	AddPlain(c, k)    = Enc(m+k)   plaintext addition
//	MulPlain(c, k)    = Enc(m*k)   plaintext scaling
//
// Plaintexts live in Z_n. Negative values are represented by the upper half
// of the ring and mapped back by Dec.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"vfps/internal/mont"
)

var one = big.NewInt(1)

// PublicKey is a Paillier public key.
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
	G  *big.Int // generator, fixed to n+1

	// arith forces a slower arithmetic than the default. Only this package's
	// tests set it (before Precompute), to compare it residue for residue
	// against the default.
	arith arith
}

// arith selects the arithmetic behind a key's modular operations.
type arith uint8

const (
	arithAuto   arith = iota // the fastest Montgomery kernel mont picks for this CPU
	arithCIOS                // mont's 64-bit CIOS kernel, even on an IFMA host
	arithStdlib              // math/big, what a modulus wider than mont.MaxLimbs takes
)

// PrivateKey holds the Paillier secret values along with the public key.
//
// When the factorisation P, Q is present (keys from GenerateKey, or
// unmarshalled from the current wire format), Decrypt runs the CRT fast path:
// two half-size exponentiations mod p² and q² instead of one full-size
// exponentiation mod n², the classic ~4× decryption win. Keys without P, Q
// (legacy serialisations, hand-built literals) fall back to the λ/μ path and
// remain fully functional.
type PrivateKey struct {
	PublicKey
	Lambda *big.Int // lcm(p-1, q-1)
	Mu     *big.Int // (L(g^lambda mod n²))⁻¹ mod n
	P, Q   *big.Int // prime factors of n; nil on legacy keys (disables CRT)

	crt  *crtPrecomp // non-nil once Precompute succeeds
	crte *crtEnc     // encryption-side CRT constants (fixedbase.go)
}

// crtPrecomp caches the constants of CRT decryption. All fields are
// read-only after Precompute, so concurrent Decrypt calls share them safely.
type crtPrecomp struct {
	p2, q2 *big.Int // p², q²
	ep, eq *big.Int // decryption exponents p−1, q−1
	hp, hq *big.Int // L_p(g^{p−1} mod p²)⁻¹ mod p, L_q(g^{q−1} mod q²)⁻¹ mod q
	pinv   *big.Int // p⁻¹ mod q (Garner recombination)

	cp2, cq2 *mont.Ctx // Montgomery contexts for p², q² (the exponentiations)
	mq       *mont.Ctx // Montgomery context for q (Garner recombination multiply)
}

// Precompute derives the CRT decryption constants from P and Q. It is called
// by GenerateKey and UnmarshalPrivateKey; call it manually only on hand-built
// keys. A key without P, Q precomputes nothing and keeps the λ/μ path. It
// must not race with in-flight Decrypt calls.
func (sk *PrivateKey) Precompute() error {
	sk.crt = nil
	sk.crte = nil
	if sk.P == nil || sk.Q == nil {
		return nil
	}
	if new(big.Int).Mul(sk.P, sk.Q).Cmp(sk.N) != 0 {
		return errors.New("paillier: private key factors do not multiply to n")
	}
	p2 := new(big.Int).Mul(sk.P, sk.P)
	q2 := new(big.Int).Mul(sk.Q, sk.Q)
	ep := new(big.Int).Sub(sk.P, one)
	eq := new(big.Int).Sub(sk.Q, one)
	cp2, cq2 := sk.newMontCtx(p2), sk.newMontCtx(q2)
	// hp = L_p(g^{p−1} mod p²)⁻¹ mod p, with L_p(x) = (x−1)/p.
	hp := new(big.Int).ModInverse(lFunc(expMod(cp2, new(big.Int), sk.G, ep, p2), sk.P), sk.P)
	hq := new(big.Int).ModInverse(lFunc(expMod(cq2, new(big.Int), sk.G, eq, q2), sk.Q), sk.Q)
	pinv := new(big.Int).ModInverse(sk.P, sk.Q)
	if hp == nil || hq == nil || pinv == nil {
		return errors.New("paillier: CRT constants not invertible")
	}
	sk.crt = &crtPrecomp{
		p2: p2, q2: q2, ep: ep, eq: eq, hp: hp, hq: hq, pinv: pinv,
		cp2: cp2, cq2: cq2, mq: sk.newMontCtx(sk.Q),
	}
	sk.crte = newCRTEnc(sk)
	return nil
}

// HasCRT reports whether decryption runs the CRT fast path.
func (sk *PrivateKey) HasCRT() bool { return sk.crt != nil }

// WithoutCRT returns a key that decrypts through the classic λ/μ path — the
// baseline that CRT benchmarks and cross-checks compare against.
func (sk *PrivateKey) WithoutCRT() *PrivateKey {
	return &PrivateKey{PublicKey: sk.PublicKey, Lambda: sk.Lambda, Mu: sk.Mu}
}

// Ciphertext is a Paillier ciphertext: an element of Z_{n²}.
type Ciphertext struct {
	C *big.Int
}

// ErrCiphertextRange reports a ciphertext outside Z_{n²} or non-invertible,
// which indicates corruption or a key mismatch.
var ErrCiphertextRange = errors.New("paillier: ciphertext out of range")

// ErrMessageRange reports a plaintext magnitude that does not fit in the
// signed embedding of Z_n.
var ErrMessageRange = errors.New("paillier: message out of range")

// ErrCiphertextBytes reports serialised ciphertext bytes that cannot encode
// any element of Z_{n²}: empty input or a value outside the ring. Catching
// this at decode time keeps corrupt wire data out of the modular arithmetic.
var ErrCiphertextBytes = errors.New("paillier: malformed ciphertext bytes")

// GenerateKey creates a Paillier key pair with an n of the given bit length.
// Bits of 1024+ are cryptographically meaningful; the test suite uses smaller
// keys for speed.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		// With g = n+1 the scheme needs gcd(n, (p-1)(q-1)) == 1, which holds
		// when p and q are distinct primes of similar size, but verify anyway.
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		lambda := new(big.Int).Div(phi, new(big.Int).GCD(nil, nil, pm1, qm1))
		n2 := new(big.Int).Mul(n, n)
		g := new(big.Int).Add(n, one)
		// mu = (L(g^lambda mod n²))⁻¹ mod n, where L(x) = (x-1)/n.
		gl := new(big.Int).Exp(g, lambda, n2)
		l := lFunc(gl, n)
		mu := new(big.Int).ModInverse(l, n)
		if mu == nil {
			continue
		}
		sk := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: n2, G: g},
			Lambda:    lambda,
			Mu:        mu,
			P:         p,
			Q:         q,
		}
		if err := sk.Precompute(); err != nil {
			continue
		}
		return sk, nil
	}
}

func lFunc(x, n *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, n)
}

// maxMessage returns the largest magnitude representable in the signed
// embedding: messages m with |m| < n/2.
func (pk *PublicKey) maxMessage() *big.Int {
	return new(big.Int).Rsh(pk.N, 1)
}

// encode maps a signed big.Int into Z_n.
func (pk *PublicKey) encode(m *big.Int) (*big.Int, error) {
	if m.CmpAbs(pk.maxMessage()) >= 0 {
		return nil, fmt.Errorf("%w: |m| >= n/2", ErrMessageRange)
	}
	if m.Sign() >= 0 {
		return new(big.Int).Set(m), nil
	}
	return new(big.Int).Add(pk.N, m), nil
}

// decode maps an element of Z_n back to a signed big.Int.
func (pk *PublicKey) decode(m *big.Int) *big.Int {
	if m.Cmp(pk.maxMessage()) > 0 {
		return new(big.Int).Sub(m, pk.N)
	}
	return new(big.Int).Set(m)
}

// Encrypt encrypts the signed message m under pk using fresh randomness from
// random (crypto/rand.Reader in production).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	em, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	rn, err := pk.randomizerValue(random)
	if err != nil {
		return nil, err
	}
	return pk.encryptWithRn(em, rn), nil
}

// Encrypt on the private key is the key holder's fast path: the randomizer
// r^n mod n² is computed through two half-width exponentiations mod p² and
// q² plus Garner recombination — the encryption-side mirror of CRT
// decryption. Ciphertexts are indistinguishable from PublicKey.Encrypt
// output.
func (sk *PrivateKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	em, err := sk.encode(m)
	if err != nil {
		return nil, err
	}
	rn, err := sk.randomizerValue(random)
	if err != nil {
		return nil, err
	}
	return sk.encryptWithRn(em, rn), nil
}

// randomizerValue computes r^n mod n² for a fresh uniform r, through the CRT
// half-width path when the key carries its factorisation.
func (sk *PrivateKey) randomizerValue(random io.Reader) (*big.Int, error) {
	r, err := sk.sampleR(random)
	if err != nil {
		return nil, err
	}
	if sk.crte != nil {
		return sk.crte.exp(r), nil
	}
	return expMod(sk.montN2(), r, r, sk.N, sk.N2), nil
}

// sampleR samples r uniformly from Z_n* (gcd(r, n) == 1).
func (pk *PublicKey) sampleR(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling randomness: %w", err)
		}
		if r.Sign() != 0 && new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// randomizerValue computes r^n mod n² for a fresh r — the modexp that
// dominates encryption cost. Randomizer pools precompute these off the
// latency path.
func (pk *PublicKey) randomizerValue(random io.Reader) (*big.Int, error) {
	r, err := pk.sampleR(random)
	if err != nil {
		return nil, err
	}
	return expMod(pk.montN2(), r, r, pk.N, pk.N2), nil
}

// encryptWithRn assembles a ciphertext from an already encoded message and a
// precomputed randomizer r^n mod n² — two modular multiplications.
// c = g^m · r^n mod n²; with g = n+1, g^m = 1 + m·n (mod n²).
func (pk *PublicKey) encryptWithRn(em, rn *big.Int) *Ciphertext {
	gm := new(big.Int).Mul(em, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// validate checks that a ciphertext is a plausible element of Z_{n²}.
func (pk *PublicKey) validate(c *Ciphertext) error {
	if c == nil || c.C == nil {
		return fmt.Errorf("%w: nil ciphertext", ErrCiphertextRange)
	}
	if c.C.Sign() <= 0 || c.C.Cmp(pk.N2) >= 0 {
		return ErrCiphertextRange
	}
	return nil
}

// Decrypt recovers the signed message from c, through the CRT fast path when
// the key carries its factorisation and the λ/μ path otherwise. Both paths
// produce identical plaintexts.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if err := sk.validate(c); err != nil {
		return nil, err
	}
	return sk.decode(sk.decryptRing(c)), nil
}

// decryptRing recovers the Z_n representative of c's plaintext.
func (sk *PrivateKey) decryptRing(c *Ciphertext) *big.Int {
	if t := sk.crt; t != nil {
		// mp = L_p(c^{p−1} mod p²)·hp mod p, and symmetrically mod q: two
		// half-width exponentiations with half-length exponents instead of one
		// full-width exponentiation, ~4× cheaper in word operations. Each runs
		// through its context's Exp, which picks the IFMA kernel's windowed
		// exponentiation or big.Int.Exp (DESIGN.md §12).
		cp := expMod(t.cp2, new(big.Int), c.C, t.ep, t.p2)
		cq := expMod(t.cq2, new(big.Int), c.C, t.eq, t.q2)
		mp := lFunc(cp, sk.P)
		mp.Mul(mp, t.hp)
		mp.Mod(mp, sk.P)
		mq := lFunc(cq, sk.Q)
		mq.Mul(mq, t.hq)
		mq.Mod(mq, sk.Q)
		// Garner: m = mp + p·((mq − mp)·p⁻¹ mod q) ∈ [0, n).
		u := new(big.Int).Sub(mq, mp)
		if t.mq != nil {
			t.mq.ModMulBig(u, u, t.pinv)
		} else {
			u.Mul(u, t.pinv)
			u.Mod(u, sk.Q)
		}
		u.Mul(u, sk.P)
		return u.Add(u, mp)
	}
	// m = L(c^lambda mod n²) · mu mod n
	cl := new(big.Int).Exp(c.C, sk.Lambda, sk.N2)
	m := lFunc(cl, sk.N)
	m.Mul(m, sk.Mu)
	m.Mod(m, sk.N)
	return m
}

// AddCipher returns a ciphertext of m1 + m2 given ciphertexts of m1 and m2.
func (pk *PublicKey) AddCipher(c1, c2 *Ciphertext) (*Ciphertext, error) {
	if err := pk.validate(c1); err != nil {
		return nil, err
	}
	if err := pk.validate(c2); err != nil {
		return nil, err
	}
	if ctx := pk.montN2(); ctx != nil {
		return &Ciphertext{C: ctx.ModMulBig(new(big.Int), c1.C, c2.C)}, nil
	}
	c := new(big.Int).Mul(c1.C, c2.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// AddCipherInto homomorphically accumulates src into dst in place:
// dst ← Enc(m_dst + m_src), reusing dst's big.Int storage. On the aggregation
// server's tree reduce this trades AddCipher's two fresh big.Int allocations
// per addition for amortised zero — the accumulator's buffer is grown once and
// reused across the whole fold (see BenchmarkSum*).
func (pk *PublicKey) AddCipherInto(dst, src *Ciphertext) error {
	if err := pk.validate(dst); err != nil {
		return err
	}
	if err := pk.validate(src); err != nil {
		return err
	}
	if ctx := pk.montN2(); ctx != nil {
		// Two REDC passes into dst's existing limb storage: zero allocations
		// once the accumulator has grown to full width.
		ctx.ModMulBig(dst.C, dst.C, src.C)
		return nil
	}
	dst.C.Mul(dst.C, src.C)
	dst.C.Mod(dst.C, pk.N2)
	return nil
}

// AddPlain returns a ciphertext of m + k given a ciphertext of m and a
// signed plaintext k.
func (pk *PublicKey) AddPlain(c *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validate(c); err != nil {
		return nil, err
	}
	ek, err := pk.encode(k)
	if err != nil {
		return nil, err
	}
	// Enc(m) · g^k = Enc(m+k); with g = n+1, g^k = 1 + k·n (mod n²).
	gk := new(big.Int).Mul(ek, pk.N)
	gk.Add(gk, one)
	gk.Mod(gk, pk.N2)
	out := gk.Mul(gk, c.C)
	out.Mod(out, pk.N2)
	return &Ciphertext{C: out}, nil
}

// MulPlain returns a ciphertext of m·k given a ciphertext of m and a signed
// plaintext k.
func (pk *PublicKey) MulPlain(c *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validate(c); err != nil {
		return nil, err
	}
	e := new(big.Int).Set(k)
	if e.Sign() < 0 {
		// c^{-k} requires the inverse of c modulo n².
		inv := new(big.Int).ModInverse(c.C, pk.N2)
		if inv == nil {
			return nil, ErrCiphertextRange
		}
		e.Neg(e)
		out := new(big.Int).Exp(inv, e, pk.N2)
		return &Ciphertext{C: out}, nil
	}
	out := new(big.Int).Exp(c.C, e, pk.N2)
	return &Ciphertext{C: out}, nil
}

// Sum homomorphically adds a sequence of ciphertexts. It returns an error on
// an empty input. The inputs are not modified: the fold runs in a single
// accumulator — a fixed-width Montgomery limb vector when the kernel is
// enabled (one CIOS pass per ciphertext, converted back to a big.Int once at
// the end), AddCipherInto otherwise — so Sum allocates one ciphertext
// regardless of len(cs).
func (pk *PublicKey) Sum(cs ...*Ciphertext) (*Ciphertext, error) {
	if len(cs) == 0 {
		return nil, errors.New("paillier: Sum of no ciphertexts")
	}
	if err := pk.validate(cs[0]); err != nil {
		return nil, err
	}
	if ctx := pk.montN2(); ctx != nil && len(cs) > 1 {
		return pk.montSum(ctx, cs)
	}
	acc := &Ciphertext{C: new(big.Int).Set(cs[0].C)}
	for _, c := range cs[1:] {
		if err := pk.AddCipherInto(acc, c); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Bytes serialises a ciphertext to a big-endian byte slice.
func (c *Ciphertext) Bytes() []byte { return c.C.Bytes() }

// CiphertextFromBytes reconstructs a ciphertext from Bytes output without
// validation; operations on the result re-validate against a key. Prefer
// PublicKey.ParseCiphertext when a key is at hand, which rejects malformed
// bytes immediately with a typed error.
func CiphertextFromBytes(b []byte) *Ciphertext {
	return &Ciphertext{C: new(big.Int).SetBytes(b)}
}

// ParseCiphertext reconstructs a ciphertext from Bytes output and validates
// it against pk. Zero-length input and encodings outside (0, n²) are rejected
// with ErrCiphertextBytes instead of surfacing later as a range error or
// garbage plaintext deep inside the modular arithmetic.
func (pk *PublicKey) ParseCiphertext(b []byte) (*Ciphertext, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrCiphertextBytes)
	}
	c := &Ciphertext{C: new(big.Int).SetBytes(b)}
	if c.C.Sign() <= 0 || c.C.Cmp(pk.N2) >= 0 {
		return nil, fmt.Errorf("%w: value outside (0, n²)", ErrCiphertextBytes)
	}
	return c, nil
}

// CiphertextSize returns the serialised size in bytes of a ciphertext under
// pk (used by the cost model for communication accounting).
func (pk *PublicKey) CiphertextSize() int { return (pk.N2.BitLen() + 7) / 8 }

// PlaintextHeadroomBits reports how many plaintext bits a packed message may
// occupy so that it — and every homomorphic sum of such messages the slot
// headroom admits — stays strictly below n/2, inside the positive half of the
// signed embedding: the modulus width minus a two-bit margin. Slot-packing
// geometry (internal/fixed, internal/he) derives its usable width from this
// hook instead of re-deriving modulus internals.
func (pk *PublicKey) PlaintextHeadroomBits() uint { return uint(pk.N.BitLen() - 2) }
