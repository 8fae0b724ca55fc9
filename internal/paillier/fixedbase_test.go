package paillier

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	"testing"

	"vfps/internal/mont"
)

// TestFBTableMatchesExp checks the comb against math/big.Exp for every
// window width, exponent widths from one bit to exactly |n|+64, and the
// zero and all-ones exponents, through both table representations.
func TestFBTableMatchesExp(t *testing.T) {
	sk := key(t)
	mod := sk.N2
	base, err := rand.Int(rand.Reader, mod)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= maxWindow; w++ {
		for _, expBits := range []int{1, 7, 64, sk.N.BitLen() + exponentSlack} {
			top := new(big.Int).Lsh(one, uint(expBits))
			exps := []*big.Int{new(big.Int), new(big.Int).Sub(top, one)}
			for i := 0; i < 4; i++ {
				e, err := rand.Int(rand.Reader, top)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					e.SetBit(e, expBits-1, 1) // exactly expBits wide
				}
				exps = append(exps, e)
			}
			// Every table representation — plain residues and Montgomery
			// form on each kernel — must agree with big.Int.Exp.
			for _, ctx := range []*mont.Ctx{nil, mont.CtxFor(mod), mont.CIOSFor(mod)} {
				tab := newFBTable(base, mod, expBits, w, ctx)
				for _, e := range exps {
					want := new(big.Int).Exp(base, e, mod)
					if got := tab.exp(e); got.Cmp(want) != 0 {
						t.Fatalf("w=%d expBits=%d mont=%v e=%x: comb exp mismatch", w, expBits, ctx != nil, e)
					}
				}
			}
		}
	}
}

// TestFBTableShape pins the comb's cost at the benchmarked shape — a
// 2048-bit key (4096-bit n², |n|+64-bit exponents) at the default width — on
// each kernel: the table takes no more bytes than the radix-2^6 table it
// replaced (22 528 entries of 512 B), an exponentiation takes at most 216
// sequential operations instead of 352 products, and it allocates only its
// result. The 64-bit CIOS entries are 512 B and give (h 11, v 11, b 18); the
// IFMA entries are 640 B, so fewer fit and the shape is (11, 8, 24) at the
// same 215 operations.
func TestFBTableShape(t *testing.T) {
	const nBits = 2048
	const radixBytes = 22528 * 512
	expBits := nBits + exponentSlack
	mod, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, 2*nBits))
	if err != nil {
		t.Fatal(err)
	}
	mod.SetBit(mod, 2*nBits-1, 1).SetBit(mod, 0, 1) // odd, exactly 2·nBits wide
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint(expBits)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []*mont.Ctx{mont.CIOSFor(mod), mont.CtxFor(mod)} {
		want := [3]int{11, 11, 18}
		if ctx.K() != 2*nBits/64 { // radix-2^52 limbs: the IFMA kernel
			want = [3]int{11, 8, 24}
		}
		h, v, b := combShape(expBits, combBudget(expBits, DefaultWindow, mod, ctx))
		if [3]int{h, v, b} != want {
			t.Fatalf("%d-limb entries: combShape = (h %d, v %d, b %d), want %v", ctx.K(), h, v, b, want)
		}
		if ops := b - 1 + v*b; ops > 216 {
			t.Fatalf("%d-limb entries: comb exp costs %d squarings+products, want <= 216", ctx.K(), ops)
		}
		tab := newFBTable(big.NewInt(3), mod, expBits, DefaultWindow, ctx)
		if bytes := len(tab.ments) * len(tab.ments[0]) * 8; bytes > radixBytes {
			t.Fatalf("%d-limb entries: comb holds %d B, radix budget %d B", ctx.K(), bytes, radixBytes)
		}
		if got, want := tab.exp(e), new(big.Int).Exp(big.NewInt(3), e, mod); got.Cmp(want) != 0 {
			t.Fatalf("%d-limb entries: comb exp mismatch at the 2048-bit shape", ctx.K())
		}
		// The result is a *big.Int and its limb slice; nothing else may escape.
		if n := testing.AllocsPerRun(5, func() { tab.exp(e) }); n > 2 {
			t.Fatalf("%d-limb entries: comb exp allocates %.1f objects, want only its result (2)", ctx.K(), n)
		}
	}
}

// TestPooledRandomizerIsGrToTheSampledExponent pins that the comb changes no
// value: for a fixed entropy stream, the source's randomizer equals
// big.Int.Exp(g_r, e, n²) for the g_r and e sampled from that stream, in the
// plain and CRT domains and through every table representation.
func TestPooledRandomizerIsGrToTheSampledExponent(t *testing.T) {
	for _, sk := range montKeys(t, 512) {
		pk := &sk.PublicKey
		for _, holder := range []*PrivateKey{nil, sk} {
			src := newRnSource(pk, holder, 0)
			got, err := src.value(&countingReader{seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			replay := &countingReader{seed: 11}
			rb, err := pk.sampleR(replay)
			if err != nil {
				t.Fatal(err)
			}
			e, err := src.sampleExp(replay)
			if err != nil {
				t.Fatal(err)
			}
			gr := new(big.Int).Exp(rb, pk.N, pk.N2)
			if want := new(big.Int).Exp(gr, e, pk.N2); got.Cmp(want) != 0 {
				t.Fatalf("%s crt=%v: randomizer != g_r^e mod n²", arithNames[sk.arith], holder != nil)
			}
		}
	}
}

// TestCRTEncMatchesExp checks that the half-width CRT production of r^n
// mod n² agrees with the direct full-width exponentiation.
func TestCRTEncMatchesExp(t *testing.T) {
	sk := key(t)
	enc := newCRTEnc(sk)
	if enc == nil {
		t.Fatal("newCRTEnc returned nil for a factored key")
	}
	for i := 0; i < 8; i++ {
		r, err := sk.sampleR(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(r, sk.N, sk.N2)
		if got := enc.exp(r); got.Cmp(want) != 0 {
			t.Fatal("CRT r^n mismatch")
		}
	}
	if newCRTEnc(sk.WithoutCRT()) != nil {
		t.Fatal("newCRTEnc must be nil without factors")
	}
	if newCRTEnc(nil) != nil {
		t.Fatal("newCRTEnc(nil) must be nil")
	}
}

// TestRnSourceStrategies runs every production strategy (classic, windowed,
// CRT, CRT+windowed) and verifies each output blinds a ciphertext that
// decrypts correctly — i.e. every strategy emits true n-th residues.
func TestRnSourceStrategies(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	for _, tc := range []struct {
		name   string
		window int
		key    *PrivateKey
	}{
		{"classic", -1, nil},
		{"windowed", 0, nil},
		{"windowed-w4", 4, nil},
		{"crt", -1, sk},
		{"crt-windowed", 0, sk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newRnSource(pk, tc.key, tc.window)
			seen := map[string]bool{}
			for i := 0; i < 6; i++ {
				rn, err := src.value(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				if seen[rn.String()] {
					t.Fatal("source repeated a randomizer")
				}
				seen[rn.String()] = true
				m := big.NewInt(int64(1000 + i))
				em, err := pk.encode(m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sk.Decrypt(pk.encryptWithRn(em, rn))
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(m) != 0 {
					t.Fatalf("round trip %v -> %v", m, got)
				}
			}
		})
	}
}

// TestPrivateKeyEncrypt checks the key holder's CRT-accelerated scalar
// encryption against normal decryption and the legacy key fallback.
func TestPrivateKeyEncrypt(t *testing.T) {
	sk := key(t)
	if sk.crte == nil {
		t.Fatal("generated key is missing encryption CRT constants")
	}
	for _, m := range []int64{0, 1, -1, 123456, -98765} {
		c, err := sk.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Fatalf("sk.Encrypt round trip %d -> %v", m, got)
		}
	}
	legacy := sk.WithoutCRT()
	c, err := legacy.Encrypt(rand.Reader, big.NewInt(77))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.Decrypt(c); err != nil || got.Int64() != 77 {
		t.Fatalf("legacy sk.Encrypt round trip -> %v, %v", got, err)
	}
}

// FuzzFixedBaseExp cross-checks the comb against big.Int.Exp on arbitrary
// bases, exponents and widths, through both table representations (the
// make-check smoke for the encryption hot path). The table is sized for the
// exponent's byte length, so leading zero bytes run it through shapes wider
// than the exponent.
func FuzzFixedBaseExp(f *testing.F) {
	// Fixed odd modulus: a product of two 64-bit primes squared would be
	// ideal, but any odd modulus > 1 exercises the table arithmetic.
	mod, _ := new(big.Int).SetString("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b23", 16)
	f.Add([]byte{2}, []byte{5}, uint8(4))
	f.Add([]byte{0xff, 0x13}, []byte{0x80, 0x00, 0x01}, uint8(6))
	f.Add([]byte{7}, []byte{0, 0, 0}, uint8(0))
	f.Add([]byte{3}, bytes.Repeat([]byte{0xff}, 64), uint8(7))
	f.Fuzz(func(t *testing.T, baseB, expB []byte, w uint8) {
		window := int(w%maxWindow) + 1
		if len(expB) > 64 {
			expB = expB[:64]
		}
		base := new(big.Int).SetBytes(baseB)
		e := new(big.Int).SetBytes(expB)
		expBits := max(8*len(expB), 1)
		want := new(big.Int).Exp(new(big.Int).Mod(base, mod), e, mod)
		for _, ctx := range []*mont.Ctx{nil, mont.CtxFor(mod), mont.CIOSFor(mod)} {
			tab := newFBTable(base, mod, expBits, window, ctx)
			if got := tab.exp(e); got.Cmp(want) != 0 {
				t.Fatalf("base=%x e=%x w=%d expBits=%d mont=%v: got %v want %v", baseB, expB, window, expBits, ctx != nil, got, want)
			}
		}
	})
}

// TestSampleExpWidth pins the exponent sampler's contract: expBits-wide,
// non-zero, and resilient to a reader that first returns zeros.
func TestSampleExpWidth(t *testing.T) {
	sk := key(t)
	src := newRnSource(&sk.PublicKey, nil, 0)
	zeroThenRand := io.MultiReader(bytes.NewReader(make([]byte, (src.expBits+7)/8)), rand.Reader)
	e, err := src.sampleExp(zeroThenRand)
	if err != nil {
		t.Fatal(err)
	}
	if e.Sign() == 0 {
		t.Fatal("sampleExp returned zero")
	}
	if e.BitLen() > src.expBits {
		t.Fatalf("exponent %d bits, want <= %d", e.BitLen(), src.expBits)
	}
}
