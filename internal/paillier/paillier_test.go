package paillier

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// testKey caches one key pair: key generation dominates the suite otherwise.
var (
	keyOnce sync.Once
	testSK  *PrivateKey
)

func key(t testing.TB) *PrivateKey {
	keyOnce.Do(func() {
		sk, err := GenerateKey(rand.Reader, 512)
		if err != nil {
			panic(err)
		}
		testSK = sk
	})
	if testSK == nil {
		t.Fatal("key generation failed")
	}
	return testSK
}

func encT(t testing.TB, pk *PublicKey, m int64) *Ciphertext {
	c, err := pk.Encrypt(rand.Reader, big.NewInt(m))
	if err != nil {
		t.Fatalf("Encrypt(%d): %v", m, err)
	}
	return c
}

func decT(t testing.TB, sk *PrivateKey, c *Ciphertext) int64 {
	m, err := sk.Decrypt(c)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	return m.Int64()
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := key(t)
	for _, m := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		if got := decT(t, sk, encT(t, &sk.PublicKey, m)); got != m {
			t.Fatalf("round trip %d -> %d", m, got)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	sk := key(t)
	c1 := encT(t, &sk.PublicKey, 7)
	c2 := encT(t, &sk.PublicKey, 7)
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two encryptions of the same message should differ")
	}
}

func TestAddCipher(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	c, err := pk.AddCipher(encT(t, pk, 30), encT(t, pk, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got := decT(t, sk, c); got != 42 {
		t.Fatalf("30+12 = %d", got)
	}
}

func TestAddCipherNegative(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	c, err := pk.AddCipher(encT(t, pk, 10), encT(t, pk, -25))
	if err != nil {
		t.Fatal(err)
	}
	if got := decT(t, sk, c); got != -15 {
		t.Fatalf("10-25 = %d", got)
	}
}

func TestAddPlain(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	c, err := pk.AddPlain(encT(t, pk, 100), big.NewInt(-40))
	if err != nil {
		t.Fatal(err)
	}
	if got := decT(t, sk, c); got != 60 {
		t.Fatalf("100-40 = %d", got)
	}
}

func TestMulPlain(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	for _, tc := range []struct{ m, k, want int64 }{
		{6, 7, 42}, {6, -7, -42}, {-6, 7, -42}, {5, 0, 0},
	} {
		c, err := pk.MulPlain(encT(t, pk, tc.m), big.NewInt(tc.k))
		if err != nil {
			t.Fatal(err)
		}
		if got := decT(t, sk, c); got != tc.want {
			t.Fatalf("%d*%d = %d, want %d", tc.m, tc.k, got, tc.want)
		}
	}
}

func TestSum(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	cs := []*Ciphertext{encT(t, pk, 1), encT(t, pk, 2), encT(t, pk, 3), encT(t, pk, -10)}
	c, err := pk.Sum(cs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := decT(t, sk, c); got != -4 {
		t.Fatalf("sum = %d, want -4", got)
	}
}

func TestSumEmpty(t *testing.T) {
	sk := key(t)
	if _, err := sk.PublicKey.Sum(); err == nil {
		t.Fatal("expected error for empty Sum")
	}
}

func TestMessageRange(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	tooBig := new(big.Int).Set(pk.N) // n itself is out of the signed range
	if _, err := pk.Encrypt(rand.Reader, tooBig); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCiphertextValidation(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	bad := []*Ciphertext{
		nil,
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Set(pk.N2)},
		{C: new(big.Int).Neg(big.NewInt(5))},
	}
	for i, c := range bad {
		if _, err := sk.Decrypt(c); err == nil {
			t.Fatalf("case %d: expected decrypt error", i)
		}
		if _, err := pk.AddCipher(c, encT(t, pk, 1)); err == nil {
			t.Fatalf("case %d: expected add error", i)
		}
	}
}

func TestSerialization(t *testing.T) {
	sk := key(t)
	c := encT(t, &sk.PublicKey, 123456)
	rt, err := sk.PublicKey.ParseCiphertext(sk.PublicKey.CiphertextBytes(c))
	if err != nil {
		t.Fatal(err)
	}
	if got := decT(t, sk, rt); got != 123456 {
		t.Fatalf("serialized round trip got %d", got)
	}
}

func TestCiphertextSize(t *testing.T) {
	sk := key(t)
	size := sk.PublicKey.CiphertextSize()
	// n is 512 bits, n² is ~1024 bits, so ~128 bytes.
	if size < 120 || size > 136 {
		t.Fatalf("unexpected ciphertext size %d", size)
	}
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 8); err == nil {
		t.Fatal("expected error for tiny key")
	}
}

func TestKeysAreDistinct(t *testing.T) {
	a, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) == 0 {
		t.Fatal("independent keys should have distinct moduli")
	}
}

// Property: Dec(Enc(a) ⊕ Enc(b)) == a + b for random signed a, b.
func TestHomomorphicAddProperty(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	f := func(a, b int32) bool {
		ca := encT(t, pk, int64(a))
		cb := encT(t, pk, int64(b))
		c, err := pk.AddCipher(ca, cb)
		if err != nil {
			return false
		}
		return decT(t, sk, c) == int64(a)+int64(b)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: mrand.New(mrand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Dec(MulPlain(Enc(a), k)) == a*k.
func TestHomomorphicScaleProperty(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	f := func(a, k int16) bool {
		c, err := pk.MulPlain(encT(t, pk, int64(a)), big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		return decT(t, sk, c) == int64(a)*int64(k)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: mrand.New(mrand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk := key(b)
	m := big.NewInt(123456789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sk.PublicKey.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk := key(b)
	c := encT(b, &sk.PublicKey, 123456789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddCipher(b *testing.B) {
	sk := key(b)
	pk := &sk.PublicKey
	c1 := encT(b, pk, 1)
	c2 := encT(b, pk, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pk.AddCipher(c1, c2); err != nil {
			b.Fatal(err)
		}
	}
}
