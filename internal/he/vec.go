package he

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"vfps/internal/paillier"
	"vfps/internal/par"
)

// VecScheme is implemented by schemes with an optimized vector fast path
// (worker-pool parallelism, pooled randomizers, one allocation per vector).
// Callers should go through the package-level EncryptVec/DecryptVec/AddVec
// helpers, which fall back to a serial loop for plain Scheme
// implementations.
type VecScheme interface {
	Scheme
	// EncryptVec encrypts a vector of real values, polling ctx between
	// chunks.
	EncryptVec(ctx context.Context, vs []float64) ([][]byte, error)
	// DecryptVec recovers a vector of (possibly aggregated) real values.
	DecryptVec(ctx context.Context, cs [][]byte) ([]float64, error)
	// AddVec homomorphically adds two equal-length ciphertext vectors
	// element-wise into a new vector.
	AddVec(ctx context.Context, a, b [][]byte) ([][]byte, error)
}

// vecChunk is the ctx poll interval of the serial fallback loops.
const vecChunk = 16

// EncryptVec encrypts vs under s, using the scheme's vector fast path when
// it has one and a serial loop otherwise. The fallback stays serial on
// purpose: schemes whose output depends on call order (the DP noise stream)
// must see the exact sequence a serial protocol run would produce.
func EncryptVec(ctx context.Context, s Scheme, vs []float64) ([][]byte, error) {
	if v, ok := s.(VecScheme); ok {
		return v.EncryptVec(ctx, vs)
	}
	out := make([][]byte, len(vs))
	for i, x := range vs {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c, err := s.Encrypt(x)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// DecryptVec decrypts cs under s, using the scheme's vector fast path when
// it has one and a serial loop otherwise.
func DecryptVec(ctx context.Context, s Scheme, cs [][]byte) ([]float64, error) {
	if v, ok := s.(VecScheme); ok {
		return v.DecryptVec(ctx, cs)
	}
	return decryptEach(ctx, s, cs)
}

// decryptEach is the serial Decrypt loop, polling ctx every vecChunk items.
func decryptEach(ctx context.Context, s Scheme, cs [][]byte) ([]float64, error) {
	out := make([]float64, len(cs))
	for i, c := range cs {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v, err := s.Decrypt(c)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// AddVec adds a and b element-wise under s, using the scheme's vector fast
// path when it has one and a serial loop of s.Add otherwise. The result is a
// new vector; a and b are left as they were.
func AddVec(ctx context.Context, s Scheme, a, b [][]byte) ([][]byte, error) {
	if v, ok := s.(VecScheme); ok {
		return v.AddVec(ctx, a, b)
	}
	if err := sameLen(a, b); err != nil {
		return nil, err
	}
	out := make([][]byte, len(a))
	for i := range a {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c, err := s.Add(a[i], b[i])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// sameLen rejects an element-wise add of vectors of different lengths.
func sameLen(a, b [][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("he: adding vectors of %d and %d ciphertexts", len(a), len(b))
	}
	return nil
}

// ---- Plain vector path ----

// slab returns n 8-byte blobs carved from one allocation. Each blob's
// capacity ends where it does, so appending to one reallocates instead of
// overwriting its neighbour.
func (p *Plain) slab(n int) [][]byte {
	slab := make([]byte, n*plainSize)
	out := make([][]byte, n)
	for i := range out {
		out[i] = slab[i*plainSize : (i+1)*plainSize : (i+1)*plainSize]
	}
	return out
}

// EncryptVec implements VecScheme: Encrypt of every value, written into one
// slab.
func (p *Plain) EncryptVec(ctx context.Context, vs []float64) ([][]byte, error) {
	out := p.slab(len(vs))
	for i, v := range vs {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := putPlain(out[i], v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecryptVec implements VecScheme: Decrypt of every blob.
func (p *Plain) DecryptVec(ctx context.Context, cs [][]byte) ([]float64, error) {
	return decryptEach(ctx, p, cs)
}

// AddVec implements VecScheme: Add of every pair, written into one slab.
func (p *Plain) AddVec(ctx context.Context, a, b [][]byte) ([][]byte, error) {
	if err := sameLen(a, b); err != nil {
		return nil, err
	}
	out := p.slab(len(a))
	for i := range a {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		va, err := p.Decrypt(a[i])
		if err != nil {
			return nil, err
		}
		vb, err := p.Decrypt(b[i])
		if err != nil {
			return nil, err
		}
		if err := putPlain(out[i], va+vb); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- Paillier vector fast path ----

// SetParallelism pins the worker count of the scheme's vector operations:
// 1 restores fully serial execution (the determinism baseline), values <= 0
// restore the default (GOMAXPROCS).
func (p *Paillier) SetParallelism(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 0 {
		n = 0
	}
	p.parallelism = n
}

// Parallelism reports the effective worker count for vector operations.
func (p *Paillier) Parallelism() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return par.Normalize(p.parallelism)
}

// SetEncryptWindow pins the fixed-base window width used when this scheme
// starts its randomizer pool: 0 keeps paillier.DefaultWindow, negative
// restores classic uniform-r sampling (full modexp per randomizer). It has
// no effect on an already-running pool.
func (p *Paillier) SetEncryptWindow(w int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.window = w
}

// StartRandomizerPool starts background precomputation of encryption
// randomizers (r^n mod n²) so subsequent encryptions hit the two-mulmod fast
// path. buffer bounds the pool (<= 0 → 64); workers is the number of filler
// goroutines (<= 0 → 1). Production uses fixed-base comb tables sized by
// SetEncryptWindow and, on a key-holding scheme, the CRT half-width path.
// Calling it again is a no-op. Close releases the pool's goroutines.
func (p *Paillier) StartRandomizerPool(buffer, workers int) {
	p.mu.Lock()
	if p.rz != nil {
		p.mu.Unlock()
		return
	}
	p.rz = paillier.NewRandomizerOpts(p.pk, p.random, paillier.PoolOptions{
		Buffer:  buffer,
		Workers: workers,
		Window:  p.window,
		Key:     p.sk,
	})
	p.mu.Unlock()
	p.syncPoolObs()
}

// Refiller is implemented by schemes whose encryption draws on a precomputed
// pool that benefits from between-round refill hints.
type Refiller interface {
	// RefillHint asynchronously tops the pool up by up to n values, bounded
	// by spare buffer capacity. It never blocks the caller.
	RefillHint(n int)
}

// Hint forwards a refill hint to schemes that support one; a protocol role
// calls it when it knows a round just drained the pool and an idle gap
// follows (the leader is off aggregating or decrypting).
func Hint(s Scheme, n int) {
	if r, ok := s.(Refiller); ok {
		r.RefillHint(n)
	}
}

// RefillHint implements Refiller: it asynchronously prefills up to n pooled
// randomizers, bounded by spare buffer capacity. Protocol roles call it at
// the end of an encryption burst so the idle gap until the next round fills
// the pool instead of the next burst's first encryptions missing it. At most
// one hint runs at a time; extras are dropped (the running one is already
// filling toward capacity).
func (p *Paillier) RefillHint(n int) {
	rz := p.pool()
	if rz == nil || rz.Closed() || n <= 0 {
		return
	}
	if !p.hinting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.hinting.Store(false)
		_, _ = rz.Prefill(n)
	}()
}

// PrefillRandomizers synchronously computes up to n pooled randomizers (the
// pool must have been started); it returns how many were added.
func (p *Paillier) PrefillRandomizers(n int) (int, error) {
	rz := p.pool()
	if rz == nil {
		return 0, nil
	}
	return rz.Prefill(n)
}

// Close stops the scheme's randomizer pool, if it started one. The scheme
// remains usable; encryption just computes randomizers inline again.
func (p *Paillier) Close() {
	p.mu.Lock()
	rz := p.rz
	p.rz = nil
	p.mu.Unlock()
	if rz != nil {
		rz.Close()
	}
}

func (p *Paillier) pool() *paillier.Randomizer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rz
}

// EncryptVec implements VecScheme: fixed-point encoding (serial, cheap)
// followed by chunked worker-pool encryption drawing from the randomizer
// pool when one is running.
func (p *Paillier) EncryptVec(ctx context.Context, vs []float64) ([][]byte, error) {
	if om := p.om.Load(); om != nil {
		defer om.vec("encrypt", len(vs), time.Now())
	}
	ms := make([]*big.Int, len(vs))
	for i, v := range vs {
		m, err := p.codec.Encode(v)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	cs, err := p.pk.EncryptVec(ctx, p.random, p.pool(), ms, p.Parallelism())
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(cs))
	for i, c := range cs {
		out[i] = p.pk.CiphertextBytes(c)
	}
	return out, nil
}

// AddVec implements VecScheme with a chunked worker pool.
func (p *Paillier) AddVec(ctx context.Context, a, b [][]byte) ([][]byte, error) {
	if err := sameLen(a, b); err != nil {
		return nil, err
	}
	if om := p.om.Load(); om != nil {
		defer om.vec("add", len(a), time.Now())
	}
	out := make([][]byte, len(a))
	err := par.For(ctx, len(a), p.Parallelism(), func(i int) error {
		c, err := p.add(a[i], b[i])
		out[i] = c
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseAll decodes and validates a batch of serialised ciphertexts.
func (p *Paillier) parseAll(cs [][]byte) ([]*paillier.Ciphertext, error) {
	cts := make([]*paillier.Ciphertext, len(cs))
	for i, c := range cs {
		ct, err := p.pk.ParseCiphertext(c)
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	return cts, nil
}

// DecryptVec implements VecScheme with a chunked worker pool.
func (p *Paillier) DecryptVec(ctx context.Context, cs [][]byte) ([]float64, error) {
	if p.sk == nil {
		return nil, ErrNoPrivateKey
	}
	if om := p.om.Load(); om != nil {
		start := time.Now()
		defer func() {
			om.vec("decrypt", len(cs), start)
			om.dec(p.sk.HasCRT(), start)
		}()
	}
	cts, err := p.parseAll(cs)
	if err != nil {
		return nil, err
	}
	ms, err := p.sk.DecryptVec(ctx, cts, p.Parallelism())
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = p.codec.Decode(m)
	}
	return out, nil
}
