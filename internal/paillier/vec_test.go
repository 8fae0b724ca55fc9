package paillier

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
)

func TestEncryptVecDecryptVecRoundTrip(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	ctx := context.Background()
	ms := make([]*big.Int, 37)
	for i := range ms {
		ms[i] = big.NewInt(int64(i*i) - 100)
	}
	for _, workers := range []int{1, 4} {
		cs, err := pk.EncryptVec(ctx, rand.Reader, nil, ms, workers)
		if err != nil {
			t.Fatalf("EncryptVec(workers=%d): %v", workers, err)
		}
		got, err := sk.DecryptVec(ctx, cs, workers)
		if err != nil {
			t.Fatalf("DecryptVec(workers=%d): %v", workers, err)
		}
		for i := range ms {
			if got[i].Cmp(ms[i]) != 0 {
				t.Fatalf("workers=%d: item %d round trip %v -> %v", workers, i, ms[i], got[i])
			}
		}
	}
}

func TestEncryptVecPooledRoundTrip(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	ctx := context.Background()
	rz := NewRandomizer(pk, rand.Reader, 16, 1)
	defer rz.Close()
	ms := []*big.Int{big.NewInt(0), big.NewInt(7), big.NewInt(-42)}
	cs, err := pk.EncryptVec(ctx, rand.Reader, rz, ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptVec(ctx, cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if got[i].Cmp(ms[i]) != 0 {
			t.Fatalf("pooled round trip %v -> %v", ms[i], got[i])
		}
	}
}

func TestEncryptVecHonorsCancelledContext(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms := make([]*big.Int, 64)
	for i := range ms {
		ms[i] = big.NewInt(int64(i))
	}
	if _, err := pk.EncryptVec(ctx, rand.Reader, nil, ms, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("EncryptVec on cancelled ctx = %v, want context.Canceled", err)
	}
	cs := make([]*Ciphertext, 64)
	for i := range cs {
		cs[i] = encT(t, pk, int64(i))
	}
	if _, err := sk.DecryptVec(ctx, cs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecryptVec on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestRandomizerPrefillAndUniqueness(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	// workers=0 is floored to 1; a tiny buffer exercises the bounded pool.
	rz := NewRandomizer(pk, rand.Reader, 4, 0)
	defer rz.Close()
	if added, err := rz.Prefill(100); err != nil {
		t.Fatal(err)
	} else if added > 4 {
		t.Fatalf("Prefill overfilled the buffer: %d > 4", added)
	}
	// Each pooled randomizer is consumed once: encrypting the same message
	// repeatedly must never produce equal ciphertexts.
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		c, err := pk.EncryptWith(rz, big.NewInt(5))
		if err != nil {
			t.Fatal(err)
		}
		s := string(pk.CiphertextBytes(c))
		if seen[s] {
			t.Fatal("randomizer reuse: identical ciphertexts for the same message")
		}
		seen[s] = true
		if got := decT(t, sk, c); got != 5 {
			t.Fatalf("EncryptWith round trip -> %d", got)
		}
	}
}

func TestRandomizerNextWorksAfterClose(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	rz := NewRandomizer(pk, rand.Reader, 2, 1)
	rz.Close()
	rz.Close() // idempotent
	c, err := pk.EncryptWith(rz, big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := decT(t, sk, c); got != 9 {
		t.Fatalf("post-Close round trip -> %d", got)
	}
}

func TestParseCiphertext(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	valid := encT(t, pk, 123)
	tooBig := new(big.Int).Add(pk.N2, big.NewInt(1))
	cases := []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"valid", pk.CiphertextBytes(valid), true},
		{"one byte short", pk.CiphertextBytes(valid)[1:], false},
		{"one byte long", append([]byte{0}, pk.CiphertextBytes(valid)...), false},
		{"minimal-length small value", big.NewInt(7).Bytes(), false},
		{"empty", nil, false},
		{"zero-length", []byte{}, false},
		{"zero value", []byte{0}, false},
		{"zero value at full width", make([]byte, pk.CiphertextSize()), false},
		{"equal n2", pk.N2.Bytes(), false},
		{"above n2", tooBig.Bytes(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := pk.ParseCiphertext(tc.in)
			if tc.ok {
				if err != nil {
					t.Fatalf("ParseCiphertext: %v", err)
				}
				if got := decT(t, sk, c); got != 123 {
					t.Fatalf("parsed ciphertext decrypts to %d", got)
				}
				return
			}
			if !errors.Is(err, ErrCiphertextBytes) {
				t.Fatalf("ParseCiphertext(%q) err = %v, want ErrCiphertextBytes", tc.name, err)
			}
		})
	}
}

// --- vector-kernel benchmarks (serial vs worker-pool vs pooled randomizers,
// kernels in isolation) ---

func benchKey(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

func benchMessages(n int) []*big.Int {
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = big.NewInt(int64(i % 1000))
	}
	return ms
}

func BenchmarkEncryptVec(b *testing.B) {
	sk := benchKey(b, 1024)
	pk := &sk.PublicKey
	ctx := context.Background()
	ms := benchMessages(100)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.EncryptVec(ctx, rand.Reader, nil, ms, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.EncryptVec(ctx, rand.Reader, nil, ms, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		rz := NewRandomizer(pk, rand.Reader, len(ms)*(b.N+1), 1)
		defer rz.Close()
		if _, err := rz.Prefill(len(ms) * b.N); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pk.EncryptVec(ctx, rand.Reader, rz, ms, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecryptVec(b *testing.B) {
	sk := benchKey(b, 1024)
	pk := &sk.PublicKey
	ctx := context.Background()
	cs, err := pk.EncryptVec(ctx, rand.Reader, nil, benchMessages(100), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.DecryptVec(ctx, cs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.DecryptVec(ctx, cs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
