package he

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func secAggParties(t *testing.T, p int, seed int64) []*SecAgg {
	t.Helper()
	out := make([]*SecAgg, p)
	for i := range out {
		s, err := NewSecAgg(i, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// aggregate sums every party's masked contribution for one item and decodes.
func aggregate(t *testing.T, parties []*SecAgg, domain byte, query, key int, values []float64) float64 {
	t.Helper()
	var acc []byte
	for i, s := range parties {
		c, err := s.EncryptAt(domain, query, key, values[i])
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = c
			continue
		}
		sum, err := s.Add(acc, c)
		if err != nil {
			t.Fatal(err)
		}
		acc = sum
	}
	v, err := parties[0].Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSecAggMasksCancel(t *testing.T) {
	parties := secAggParties(t, 4, 42)
	values := []float64{1.5, -2.25, 10.125, 0.0009765625}
	var want float64
	for _, v := range values {
		want += v
	}
	got := aggregate(t, parties, DomainItem, 7, 123, values)
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("aggregate %g, want %g", got, want)
	}
}

func TestSecAggPartialAggregateIsMasked(t *testing.T) {
	// Summing fewer than P contributions must NOT reveal the partial sum:
	// the residual mask makes the decode garbage with overwhelming
	// probability.
	parties := secAggParties(t, 3, 1)
	a, _ := parties[0].EncryptAt(DomainItem, 0, 5, 1.0)
	b, _ := parties[1].EncryptAt(DomainItem, 0, 5, 2.0)
	sum, _ := parties[0].Add(a, b)
	v, err := parties[0].Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3.0) < 1e-3 {
		t.Fatalf("partial aggregate leaked the true sum: %g", v)
	}
}

func TestSecAggSingleCiphertextLooksRandom(t *testing.T) {
	// One participant's masked value must differ wildly from the plaintext.
	parties := secAggParties(t, 2, 9)
	c, err := parties[0].EncryptAt(DomainItem, 1, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := parties[0].Decrypt(c)
	if math.Abs(v-0.5) < 1e-3 {
		t.Fatalf("mask failed to blind the value: decoded %g", v)
	}
}

func TestSecAggDomainsAndKeysSeparateMasks(t *testing.T) {
	parties := secAggParties(t, 2, 3)
	c1, _ := parties[0].EncryptAt(DomainItem, 0, 1, 0)
	c2, _ := parties[0].EncryptAt(DomainItem, 0, 2, 0)
	c3, _ := parties[0].EncryptAt(DomainRank, 0, 1, 0)
	c4, _ := parties[0].EncryptAt(DomainItem, 1, 1, 0)
	w1 := binary.BigEndian.Uint64(c1)
	if w1 == binary.BigEndian.Uint64(c2) ||
		w1 == binary.BigEndian.Uint64(c3) ||
		w1 == binary.BigEndian.Uint64(c4) {
		t.Fatal("masks must differ across keys, domains and queries")
	}
}

func TestSecAggContextFreeEncryptRejected(t *testing.T) {
	parties := secAggParties(t, 2, 1)
	if _, err := parties[0].Encrypt(1.0); !errors.Is(err, ErrNeedsContext) {
		t.Fatalf("want ErrNeedsContext, got %v", err)
	}
}

func TestSecAggUnboundRoleCannotEncrypt(t *testing.T) {
	tmpl, err := NewSecAgg(-1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.EncryptAt(DomainItem, 0, 0, 1.0); err == nil {
		t.Fatal("unbound template must not encrypt")
	}
	bound, err := tmpl.WithIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bound.EncryptAt(DomainItem, 0, 0, 1.0); err != nil {
		t.Fatalf("bound scheme should encrypt: %v", err)
	}
}

func TestSecAggValidation(t *testing.T) {
	if _, err := NewSecAgg(0, 1, 1); err == nil {
		t.Fatal("expected parties<2 error")
	}
	if _, err := NewSecAgg(5, 3, 1); err == nil {
		t.Fatal("expected index range error")
	}
	s, _ := NewSecAgg(0, 2, 1)
	if _, err := s.EncryptAt(DomainItem, 0, 0, math.NaN()); err == nil {
		t.Fatal("expected NaN error")
	}
	if _, err := s.EncryptAt(DomainItem, 0, 0, 1e18); err == nil {
		t.Fatal("expected overflow error")
	}
	if _, err := s.Decrypt([]byte{1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := s.Add([]byte{1}, []byte{2}); err == nil {
		t.Fatal("expected add length error")
	}
	masked, err := s.EncryptAt(DomainItem, 0, 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(masked) != 8 || s.Name() != "secagg" {
		t.Fatal("metadata wrong")
	}
}

// Property: for random party counts, values, and items, the full aggregate
// always decodes to the true sum within fixed-point resolution.
func TestSecAggCancellationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(6)
		parties := make([]*SecAgg, p)
		for i := range parties {
			s, err := NewSecAgg(i, p, seed)
			if err != nil {
				return false
			}
			parties[i] = s
		}
		query := rng.Intn(1000)
		key := rng.Intn(1000)
		values := make([]float64, p)
		var want float64
		for i := range values {
			values[i] = rng.NormFloat64() * 100
			want += values[i]
		}
		var acc []byte
		for i, s := range parties {
			c, err := s.EncryptAt(DomainItem, query, key, values[i])
			if err != nil {
				return false
			}
			if acc == nil {
				acc = c
				continue
			}
			acc, err = s.Add(acc, c)
			if err != nil {
				return false
			}
		}
		got, err := parties[0].Decrypt(acc)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
