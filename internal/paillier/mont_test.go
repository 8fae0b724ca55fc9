package paillier

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"testing"

	"vfps/internal/mont"
)

var arithNames = [...]string{arithAuto: "auto", arithCIOS: "cios", arithStdlib: "stdlib"}

// montKeys returns the same generated key once per arithmetic: the default
// (what a key this size selects: the IFMA kernel on an IFMA host), then
// forced onto the 64-bit CIOS kernel, then onto the stdlib fallback. The
// clones share the big.Int values (all read-only) but carry their own arith
// hook and their own precomputed CRT state.
func montKeys(t *testing.T, bits int) []*PrivateKey {
	t.Helper()
	on := key2(t, bits)
	keys := []*PrivateKey{on}
	for _, a := range []arith{arithCIOS, arithStdlib} {
		off := &PrivateKey{
			PublicKey: on.PublicKey,
			Lambda:    on.Lambda, Mu: on.Mu, P: on.P, Q: on.Q,
		}
		off.arith = a
		if err := off.Precompute(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, off)
	}
	return keys
}

// forEachSlowArith runs f once per forced arithmetic against the default key.
func forEachSlowArith(t *testing.T, bits int, f func(t *testing.T, on, off *PrivateKey)) {
	keys := montKeys(t, bits)
	for _, off := range keys[1:] {
		t.Run(arithNames[off.arith], func(t *testing.T) { f(t, keys[0], off) })
	}
}

func key2(t *testing.T, bits int) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestMontKnobBitIdentical drives every threaded operation — encryption
// randomizers, CRT encrypt/decrypt, AddCipher, AddCipherInto, Sum — through
// the default arithmetic and each forced one, and demands identical residues.
func TestMontKnobBitIdentical(t *testing.T) { forEachSlowArith(t, 512, testMontKnobBitIdentical) }

func testMontKnobBitIdentical(t *testing.T, on, off *PrivateKey) {
	// Deterministic entropy so both paths sample identical randomizers.
	mkRead := func() *countingReader { return &countingReader{seed: 42} }

	msgs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-77), big.NewInt(123456789)}
	var csOn, csOff []*Ciphertext
	rOn, rOff := mkRead(), mkRead()
	for _, m := range msgs {
		a, err := on.Encrypt(rOn, m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := off.Encrypt(rOff, m)
		if err != nil {
			t.Fatal(err)
		}
		if a.C.Cmp(b.C) != 0 {
			t.Fatalf("Encrypt(%v): ciphertexts differ", m)
		}
		csOn = append(csOn, a)
		csOff = append(csOff, b)
	}
	// Public-key encryption path (no CRT).
	pkOn, pkOff := &on.PublicKey, &off.PublicKey
	rOn, rOff = mkRead(), mkRead()
	a, err := pkOn.Encrypt(rOn, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pkOff.Encrypt(rOff, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.C.Cmp(b.C) != 0 {
		t.Fatal("PublicKey.Encrypt: paths differ")
	}

	sumOn, err := pkOn.Sum(csOn...)
	if err != nil {
		t.Fatal(err)
	}
	sumOff, err := pkOff.Sum(csOff...)
	if err != nil {
		t.Fatal(err)
	}
	if sumOn.C.Cmp(sumOff.C) != 0 {
		t.Fatal("Sum: paths differ")
	}
	addOn, err := pkOn.AddCipher(csOn[0], csOn[1])
	if err != nil {
		t.Fatal(err)
	}
	addOff, err := pkOff.AddCipher(csOff[0], csOff[1])
	if err != nil {
		t.Fatal(err)
	}
	if addOn.C.Cmp(addOff.C) != 0 {
		t.Fatal("AddCipher: paths differ")
	}
	intoOn := &Ciphertext{C: new(big.Int).Set(csOn[2].C)}
	intoOff := &Ciphertext{C: new(big.Int).Set(csOff[2].C)}
	if err := pkOn.AddCipherInto(intoOn, csOn[3]); err != nil {
		t.Fatal(err)
	}
	if err := pkOff.AddCipherInto(intoOff, csOff[3]); err != nil {
		t.Fatal(err)
	}
	if intoOn.C.Cmp(intoOff.C) != 0 {
		t.Fatal("AddCipherInto: paths differ")
	}

	// Both keys decrypt both sums to the true total, each through its own
	// CRT arithmetic.
	want := big.NewInt(0)
	for _, m := range msgs {
		want.Add(want, m)
	}
	for _, sk := range []*PrivateKey{on, off} {
		got, err := sk.Decrypt(sumOn)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("Decrypt(sum) = %v, want %v (%s)", got, want, arithNames[sk.arith])
		}
	}
}

// TestMontPooledRandomizersBitIdentical pins the fixed-base table paths:
// with identical entropy, windowed randomizer production (plain and CRT
// domains) yields identical values through every table representation.
func TestMontPooledRandomizersBitIdentical(t *testing.T) {
	forEachSlowArith(t, 512, testMontPooledRandomizersBitIdentical)
}

func testMontPooledRandomizersBitIdentical(t *testing.T, on, off *PrivateKey) {
	for _, crt := range []bool{false, true} {
		var skOn, skOff *PrivateKey
		if crt {
			skOn, skOff = on, off
		}
		srcOn := newRnSource(&on.PublicKey, skOn, DefaultWindow)
		srcOff := newRnSource(&off.PublicKey, skOff, DefaultWindow)
		rOn := &countingReader{seed: 7}
		rOff := &countingReader{seed: 7}
		for i := 0; i < 4; i++ {
			a, err := srcOn.value(rOn)
			if err != nil {
				t.Fatal(err)
			}
			b, err := srcOff.value(rOff)
			if err != nil {
				t.Fatal(err)
			}
			if a.Cmp(b) != 0 {
				t.Fatalf("crt=%v draw %d: windowed randomizers differ", crt, i)
			}
		}
	}
}

// countingReader is a tiny deterministic entropy source (xorshift on a
// counter) so two knob settings see byte-identical randomness.
type countingReader struct{ seed uint64 }

func (c *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		c.seed ^= c.seed << 13
		c.seed ^= c.seed >> 7
		c.seed ^= c.seed << 17
		p[i] = byte(c.seed)
	}
	return len(p), nil
}

// TestAddCipherIntoZeroAlloc is the allocation regression gate for the
// accumulation hot path: once the accumulator has grown to full width, the
// Montgomery AddCipherInto must not allocate.
func TestAddCipherIntoZeroAlloc(t *testing.T) {
	sk := key2(t, 512)
	pk := &sk.PublicKey
	a, err := sk.Encrypt(rand.Reader, big.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sk.Encrypt(rand.Reader, big.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.AddCipherInto(a, b); err != nil { // warm the accumulator
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := pk.AddCipherInto(a, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AddCipherInto allocates %.1f objects per op on the Montgomery path", n)
	}
}

// TestMontKnobDefault pins how the arithmetic backend is chosen now that no
// knob selects it: a key whose n² fits mont.MaxLimbs runs the kernel mont
// picks, a wider one (and the tests' stdlib hook) takes the math/big
// fallback, and the CIOS hook takes mont's 64-bit kernel.
func TestMontKnobDefault(t *testing.T) {
	sk := key2(t, 128)
	pk := &sk.PublicKey
	if pk.montN2() == nil {
		t.Fatal("a 128-bit key must run the Montgomery kernel")
	}
	if pk.montN2() != mont.CtxFor(pk.N2) {
		t.Fatal("the default arithmetic must be mont's shared context")
	}
	pk.arith = arithCIOS
	if pk.montN2() != mont.CIOSFor(pk.N2) {
		t.Fatal("the CIOS hook must select mont's 64-bit kernel")
	}
	pk.arith = arithStdlib
	if pk.montN2() != nil {
		t.Fatal("the stdlib hook must select the math/big fallback")
	}
	n2 := new(big.Int).Lsh(big.NewInt(1), mont.MaxLimbs*bits.UintSize)
	n2.Add(n2, big.NewInt(1)) // odd, one limb too wide
	if wide := (&PublicKey{N2: n2}); wide.montN2() != nil {
		t.Fatal("a modulus wider than mont.MaxLimbs must fall back to math/big")
	}
}
