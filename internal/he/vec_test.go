package he

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"vfps/internal/obs"
	"vfps/internal/paillier"
)

func vecVals() []float64 {
	vs := make([]float64, 41)
	for i := range vs {
		vs[i] = float64(i)*0.25 - 3
	}
	return vs
}

func TestVecRoundTripAllSchemes(t *testing.T) {
	ctx := context.Background()
	dp, err := NewDP(1, 1e-5, 7)
	if err != nil {
		t.Fatal(err)
	}
	all := schemes(t)
	all["dp"] = dp // exercises the serial fallback path
	vs := vecVals()
	for name, s := range all {
		cs, err := EncryptVec(ctx, s, vs)
		if err != nil {
			t.Fatalf("%s EncryptVec: %v", name, err)
		}
		got, err := DecryptVec(ctx, s, cs)
		if err != nil {
			t.Fatalf("%s DecryptVec: %v", name, err)
		}
		if len(got) != len(vs) {
			t.Fatalf("%s: %d values decrypted from %d", name, len(got), len(vs))
		}
		for i := range vs {
			if name == "dp" { // Gaussian noise: check sanity, not the value
				if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
					t.Fatalf("dp item %d: %g", i, got[i])
				}
				continue
			}
			if math.Abs(got[i]-vs[i]) > 1e-9 {
				t.Fatalf("%s item %d: %g -> %g", name, i, vs[i], got[i])
			}
		}
	}
}

func TestPaillierVecMatchesScalarAtEveryParallelism(t *testing.T) {
	ctx := context.Background()
	k := testKey(t)
	vs := vecVals()
	for _, parallelism := range []int{1, 3, 0} {
		p := NewPaillier(&k.PublicKey, k)
		p.SetParallelism(parallelism)
		cs, err := p.EncryptVec(ctx, vs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DecryptVec(ctx, cs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vs {
			if math.Abs(got[i]-vs[i]) > 1e-9 {
				t.Fatalf("parallelism=%d item %d: %g -> %g", parallelism, i, vs[i], got[i])
			}
			// Cross-check against the scalar path: same codec, same key.
			sv, err := p.Decrypt(cs[i])
			if err != nil {
				t.Fatal(err)
			}
			if sv != got[i] {
				t.Fatalf("scalar/vector decrypt disagree: %g vs %g", sv, got[i])
			}
		}
	}
}

func TestPaillierPooledEncryptVec(t *testing.T) {
	ctx := context.Background()
	k := testKey(t)
	p := NewPaillier(&k.PublicKey, k)
	p.StartRandomizerPool(8, 1)
	p.StartRandomizerPool(8, 1) // idempotent
	defer p.Close()
	if added, err := p.PrefillRandomizers(8); err != nil {
		t.Fatal(err)
	} else if added == 0 && p.pool().Depth() == 0 {
		// added == 0 is fine when the background filler beat us to a full
		// buffer (the windowed source makes that the common case).
		t.Fatal("PrefillRandomizers added nothing to an empty pool")
	}
	vs := vecVals()
	cs, err := p.EncryptVec(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.DecryptVec(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if math.Abs(got[i]-vs[i]) > 1e-9 {
			t.Fatalf("pooled item %d: %g -> %g", i, vs[i], got[i])
		}
	}
	// Scalar Encrypt also uses the pool's fast path and must stay correct.
	c, err := p.Encrypt(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := p.Decrypt(c); err != nil || math.Abs(v-2.5) > 1e-9 {
		t.Fatalf("pooled scalar Encrypt -> %g, %v", v, err)
	}
	p.Close()
	p.Close() // idempotent; scheme stays usable
	if _, err := p.EncryptVec(ctx, vs[:3]); err != nil {
		t.Fatalf("EncryptVec after Close: %v", err)
	}
}

func TestPaillierVecErrors(t *testing.T) {
	ctx := context.Background()
	k := testKey(t)
	pub := NewPaillier(&k.PublicKey, nil)
	if _, err := pub.DecryptVec(ctx, [][]byte{{1}}); !errors.Is(err, ErrNoPrivateKey) {
		t.Fatalf("public-only DecryptVec err = %v, want ErrNoPrivateKey", err)
	}
	p := NewPaillier(&k.PublicKey, k)
	if _, err := p.DecryptVec(ctx, [][]byte{nil}); !errors.Is(err, paillier.ErrCiphertextBytes) {
		t.Fatalf("DecryptVec(nil bytes) err = %v, want ErrCiphertextBytes", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.EncryptVec(cctx, vecVals()); !errors.Is(err, context.Canceled) {
		t.Fatalf("EncryptVec on cancelled ctx = %v", err)
	}
}

func TestPaillierScalarDecodeErrorsAreTyped(t *testing.T) {
	k := testKey(t)
	p := NewPaillier(&k.PublicKey, k)
	if _, err := p.Decrypt(nil); !errors.Is(err, paillier.ErrCiphertextBytes) {
		t.Fatalf("Decrypt(nil) err = %v, want ErrCiphertextBytes", err)
	}
	good, err := p.Encrypt(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add(good, []byte{}); !errors.Is(err, paillier.ErrCiphertextBytes) {
		t.Fatalf("Add(good, empty) err = %v, want ErrCiphertextBytes", err)
	}
	if _, err := p.Add([]byte{0}, good); !errors.Is(err, paillier.ErrCiphertextBytes) {
		t.Fatalf("Add(zero, good) err = %v, want ErrCiphertextBytes", err)
	}
}

func TestSerialFallbackHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dp, err := NewDP(1, 1e-5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Scheme{"plain": NewPlain(), "dp (fallback)": dp} {
		if _, err := EncryptVec(ctx, s, vecVals()); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s EncryptVec on cancelled ctx = %v", name, err)
		}
		cs, err := EncryptVec(context.Background(), s, vecVals())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecryptVec(ctx, s, cs); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s DecryptVec on cancelled ctx = %v", name, err)
		}
		if _, err := AddVec(ctx, s, cs, cs); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s AddVec on cancelled ctx = %v", name, err)
		}
	}
}

// plainEdgeValues are the values whose bits a plain blob must carry exactly:
// both zeros, subnormals and the extremes of the finite range.
func plainEdgeValues() []float64 {
	sub := math.SmallestNonzeroFloat64
	return []float64{0, math.Copysign(0, -1), sub, -sub, 3 * sub, math.Float64frombits(0x000fffffffffffff),
		1, -2.5, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 0.1}
}

// TestPlainVecMatchesScalar pins the plain vector path to the scalar one bit
// for bit — encryption, decryption and every pairwise sum of the edge values
// — and its blobs to capacity-clipped windows of the slab, so appending to
// one cannot overwrite its neighbour.
func TestPlainVecMatchesScalar(t *testing.T) {
	ctx := context.Background()
	p := NewPlain()
	vs := plainEdgeValues()
	cs, err := p.EncryptVec(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		want, err := p.Encrypt(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cs[i], want) || cap(cs[i]) != len(cs[i]) {
			t.Fatalf("EncryptVec(%g) = %d B of cap %d, Encrypt gives %d B that differ",
				v, len(cs[i]), cap(cs[i]), len(want))
		}
	}
	got, err := p.DecryptVec(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("DecryptVec round trip of %g gave %g", v, got[i])
		}
	}
	// Every ordered pair whose sum is finite, added as two vectors.
	var as, bs [][]byte
	for i := range vs {
		for j := range vs {
			if s := vs[i] + vs[j]; !math.IsInf(s, 0) {
				as, bs = append(as, cs[i]), append(bs, cs[j])
			}
		}
	}
	sums, err := AddVec(ctx, p, as, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		want, err := p.Add(as[i], bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sums[i], want) || cap(sums[i]) != len(sums[i]) {
			t.Fatalf("AddVec pair %d differs from Add, or its blob is not capacity-clipped", i)
		}
	}
	next := append([]byte(nil), sums[1]...)
	_ = append(sums[0], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if !bytes.Equal(sums[1], next) {
		t.Fatal("appending to one blob overwrote its neighbour in the slab")
	}
}

// TestPlainVecRejects pins what the plain vector path refuses, exactly as
// the scalar path does: a non-finite value, a sum that overflows to ±Inf, a
// blob shorter than 8 B, and vectors of different lengths.
func TestPlainVecRejects(t *testing.T) {
	ctx := context.Background()
	p := NewPlain()
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := p.EncryptVec(ctx, []float64{1, v}); err == nil {
			t.Fatalf("EncryptVec accepted %g", v)
		}
	}
	for _, m := range []float64{math.MaxFloat64, -math.MaxFloat64} {
		c, err := p.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		_, scalarErr := p.Add(c, c)
		if _, err := p.AddVec(ctx, [][]byte{c, c}, [][]byte{c, c}); err == nil || scalarErr == nil || err.Error() != scalarErr.Error() {
			t.Fatalf("the sum of %g and itself: AddVec err %v, Add err %v", m, err, scalarErr)
		}
	}
	good, err := p.Encrypt(1)
	if err != nil {
		t.Fatal(err)
	}
	short := good[:7]
	if _, err := p.AddVec(ctx, [][]byte{good}, [][]byte{short}); err == nil {
		t.Fatal("AddVec accepted a 7-byte blob")
	}
	if _, err := p.AddVec(ctx, [][]byte{short}, [][]byte{good}); err == nil {
		t.Fatal("AddVec accepted a 7-byte blob")
	}
	if _, err := p.DecryptVec(ctx, [][]byte{good, short}); err == nil {
		t.Fatal("DecryptVec accepted a 7-byte blob")
	}
	if _, err := AddVec(ctx, p, [][]byte{good, good}, [][]byte{good}); err == nil {
		t.Fatal("AddVec accepted vectors of different lengths")
	}
}

// TestAddVecMatchesScalar checks the vector add of every scheme against its
// scalar Add: Paillier's worker pool at every parallelism (homomorphic
// addition is deterministic, so the bytes agree), and the serial fallback of
// a scheme without a vector path. Paillier's op counter still counts one add
// per element.
func TestAddVecMatchesScalar(t *testing.T) {
	ctx := context.Background()
	k := testKey(t)
	sa, err := NewSecAgg(0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	vs := vecVals()
	encrypt := func(s Scheme, v float64, i int) []byte {
		var c []byte
		var err error
		if cs, ok := s.(Contextual); ok {
			c, err = cs.EncryptAt(DomainItem, 1, i, v)
		} else {
			c, err = s.Encrypt(v)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, parallelism := range []int{1, 3, 0} {
		p := NewPaillier(&k.PublicKey, k)
		p.SetParallelism(parallelism)
		reg := obs.New()
		p.SetObserver(reg, "test")
		for name, s := range map[string]Scheme{"paillier": p, "secagg (fallback)": sa} {
			a, b := make([][]byte, len(vs)), make([][]byte, len(vs))
			for i, v := range vs {
				a[i], b[i] = encrypt(s, v, i), encrypt(s, 2*v, i)
			}
			sums, err := AddVec(ctx, s, a, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sums {
				want, err := s.Add(a[i], b[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sums[i], want) {
					t.Fatalf("%s parallelism=%d: AddVec item %d differs from Add", name, parallelism, i)
				}
			}
		}
		// One AddVec of len(vs) plus len(vs) scalar Adds.
		if got := declareHE(reg).ops.With("paillier", "test", "add").Value(); got != int64(2*len(vs)) {
			t.Fatalf("parallelism=%d: add counter = %d, want %d", parallelism, got, 2*len(vs))
		}
	}
}
