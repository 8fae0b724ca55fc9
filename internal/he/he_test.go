package he

import (
	"context"
	"crypto/rand"
	"errors"
	"math"
	"sync"
	"testing"

	"vfps/internal/paillier"
)

var (
	keyOnce sync.Once
	sk      *paillier.PrivateKey
)

func testKey(t testing.TB) *paillier.PrivateKey {
	keyOnce.Do(func() {
		k, err := paillier.GenerateKey(rand.Reader, 512)
		if err != nil {
			panic(err)
		}
		sk = k
	})
	return sk
}

func schemes(t testing.TB) map[string]Scheme {
	k := testKey(t)
	return map[string]Scheme{
		"paillier": NewPaillier(&k.PublicKey, k),
		"plain":    NewPlain(),
	}
}

func TestSchemeRoundTrip(t *testing.T) {
	for name, s := range schemes(t) {
		for _, v := range []float64{0, 1.5, -2.25, 12345.6789, 1e-6} {
			c, err := s.Encrypt(v)
			if err != nil {
				t.Fatalf("%s Encrypt(%g): %v", name, v, err)
			}
			got, err := s.Decrypt(c)
			if err != nil {
				t.Fatalf("%s Decrypt: %v", name, err)
			}
			if math.Abs(got-v) > 1e-9 {
				t.Fatalf("%s round trip %g -> %g", name, v, got)
			}
		}
	}
}

func TestSchemeAdd(t *testing.T) {
	for name, s := range schemes(t) {
		a, _ := s.Encrypt(1.25)
		b, _ := s.Encrypt(-0.75)
		c, err := s.Add(a, b)
		if err != nil {
			t.Fatalf("%s Add: %v", name, err)
		}
		got, err := s.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-0.5) > 1e-9 {
			t.Fatalf("%s add got %g", name, got)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	k := testKey(t)
	if NewPaillier(&k.PublicKey, nil).Name() != "paillier" || NewPlain().Name() != "plain" {
		t.Fatal("scheme names wrong")
	}
}

func TestPaillierPublicOnly(t *testing.T) {
	k := testKey(t)
	pub := NewPaillier(&k.PublicKey, nil)
	c, err := pub.Encrypt(3.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Decrypt(c); !errors.Is(err, ErrNoPrivateKey) {
		t.Fatalf("want ErrNoPrivateKey, got %v", err)
	}
	// The full scheme must decrypt what the public-only one encrypted.
	full := NewPaillier(&k.PublicKey, k)
	got, err := full.Decrypt(c)
	if err != nil || math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("cross decrypt: %v %g", err, got)
	}
}

func TestEncryptNonFinite(t *testing.T) {
	for name, s := range schemes(t) {
		if _, err := s.Encrypt(math.NaN()); err == nil {
			t.Fatalf("%s: expected NaN error", name)
		}
	}
}

// TestPlainDecryptBadLength pins plain ciphertexts to exactly 8 bytes: a
// truncated blob, one with a trailing byte and the 256-byte zero-padded blob
// of a peer that still pads are refused by Decrypt, Add, DecryptVec and
// AddVec alike, and by the dp scheme, which decodes through Plain.
func TestPlainDecryptBadLength(t *testing.T) {
	p := NewPlain()
	good, err := p.Encrypt(1.5)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDP(1, 1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 7, 9, 256} {
		bad := make([]byte, n)
		copy(bad, good)
		if _, err := p.Decrypt(bad); err == nil {
			t.Fatalf("Decrypt accepted a %d-byte blob", n)
		}
		if _, err := p.Add(good, bad); err == nil {
			t.Fatalf("Add accepted a %d-byte blob", n)
		}
		if _, err := p.DecryptVec(context.Background(), [][]byte{good, bad}); err == nil {
			t.Fatalf("DecryptVec accepted a %d-byte blob", n)
		}
		if _, err := p.AddVec(context.Background(), [][]byte{good}, [][]byte{bad}); err == nil {
			t.Fatalf("AddVec accepted a %d-byte blob", n)
		}
		if _, err := dp.Decrypt(bad); err == nil {
			t.Fatalf("dp Decrypt accepted a %d-byte blob", n)
		}
	}
	if v, err := p.Decrypt(good); err != nil || v != 1.5 {
		t.Fatalf("Decrypt of an 8-byte blob = %g, %v", v, err)
	}
}

func TestCiphertextSizes(t *testing.T) {
	k := testKey(t)
	ps := NewPaillier(&k.PublicKey, nil)
	if ps.CiphertextSize() < 100 {
		t.Fatalf("paillier size %d too small", ps.CiphertextSize())
	}
	if NewPlain().CiphertextSize() != 8 {
		t.Fatal("plain ciphertexts should be bare 8-byte values")
	}
}

// TestPaillierCiphertextsAreFixedWidth pins the wire width of every
// ciphertext the scheme emits. A minimal-length encoding leaves about one
// ciphertext in 128–256 a byte short, so the byte count of a selection would
// drift between runs that send the same ciphertexts; a blob of any other
// width is refused.
func TestPaillierCiphertextsAreFixedWidth(t *testing.T) {
	ctx := context.Background()
	p := packedScheme(t, 256, 4)
	size := p.CiphertextSize()
	vs := make([]float64, 2048)
	for i := range vs {
		vs[i] = float64(i%97) / 7
	}
	vec, err := p.EncryptVec(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := p.AddVec(ctx, vec, vec)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := p.EncryptPacked(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	one, err := p.Encrypt(1.5)
	if err != nil {
		t.Fatal(err)
	}
	two, err := p.Add(one, one)
	if err != nil {
		t.Fatal(err)
	}
	for name, blobs := range map[string][][]byte{"EncryptVec": vec, "AddVec": sums,
		"EncryptPacked": packed, "Encrypt/Add": {one, two}} {
		for i, b := range blobs {
			if len(b) != size {
				t.Fatalf("%s: ciphertext %d of %d is %d bytes, want %d", name, i, len(blobs), len(b), size)
			}
		}
	}
	if _, err := p.Decrypt(vec[0][1:]); !errors.Is(err, paillier.ErrCiphertextBytes) {
		t.Fatalf("a blob one byte short decrypted with err = %v, want ErrCiphertextBytes", err)
	}
}

func TestPaillierCorruptedCiphertext(t *testing.T) {
	k := testKey(t)
	s := NewPaillier(&k.PublicKey, k)
	if _, err := s.Decrypt([]byte{}); err == nil {
		t.Fatal("expected error for empty ciphertext")
	}
	c, _ := s.Encrypt(1)
	// Overflowing the modulus range must be rejected.
	huge := make([]byte, len(c)+64)
	for i := range huge {
		huge[i] = 0xff
	}
	if _, err := s.Decrypt(huge); err == nil {
		t.Fatal("expected error for oversized ciphertext")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	k := testKey(t)
	b := MarshalPublicKey(&k.PublicKey)
	pk, err := UnmarshalPublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if pk.N.Cmp(k.N) != 0 || pk.N2.Cmp(k.N2) != 0 || pk.G.Cmp(k.G) != 0 {
		t.Fatal("public key round trip mismatch")
	}
	// Encrypt with the reconstructed key, decrypt with the original.
	s := NewPaillier(pk, nil)
	c, err := s.Encrypt(7.25)
	if err != nil {
		t.Fatal(err)
	}
	full := NewPaillier(&k.PublicKey, k)
	got, err := full.Decrypt(c)
	if err != nil || math.Abs(got-7.25) > 1e-9 {
		t.Fatalf("reconstructed-key encrypt failed: %v %g", err, got)
	}
}

func TestPrivateKeySerialization(t *testing.T) {
	k := testKey(t)
	b := MarshalPrivateKey(k)
	rk, err := UnmarshalPrivateKey(b)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPaillier(&k.PublicKey, nil)
	c, _ := s.Encrypt(-4.5)
	full := NewPaillier(&rk.PublicKey, rk)
	got, err := full.Decrypt(c)
	if err != nil || math.Abs(got+4.5) > 1e-9 {
		t.Fatalf("reconstructed private key failed: %v %g", err, got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalPublicKey([]byte{1, 2}); err == nil {
		t.Fatal("expected truncated header error")
	}
	if _, err := UnmarshalPublicKey([]byte{0, 0, 0, 9, 1}); err == nil {
		t.Fatal("expected truncated body error")
	}
	k := testKey(t)
	b := append(MarshalPublicKey(&k.PublicKey), 0xaa)
	if _, err := UnmarshalPublicKey(b); err == nil {
		t.Fatal("expected trailing bytes error")
	}
	if _, err := UnmarshalPrivateKey([]byte{}); err == nil {
		t.Fatal("expected private key error")
	}
}

// The two schemes must agree on aggregated values: sum of many encrypted
// partials decrypts identically (within fixed-point tolerance).
func TestSchemesAgreeOnAggregation(t *testing.T) {
	k := testKey(t)
	pail := NewPaillier(&k.PublicKey, k)
	plain := NewPlain()
	values := []float64{0.5, 1.75, -0.25, 3.125, 10}
	var want float64
	for _, v := range values {
		want += v
	}
	for name, s := range map[string]Scheme{"paillier": pail, "plain": plain} {
		acc, err := s.Encrypt(values[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range values[1:] {
			c, err := s.Encrypt(v)
			if err != nil {
				t.Fatal(err)
			}
			acc, err = s.Add(acc, c)
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Decrypt(acc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8 {
			t.Fatalf("%s aggregate %g, want %g", name, got, want)
		}
	}
}
