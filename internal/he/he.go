// Package he defines the homomorphic-encryption interface the VFL protocol
// uses (HE.Enc, HE.Dec, HE.Sum over real-valued partial distances) and two
// implementations:
//
//   - Paillier: real additively homomorphic encryption over fixed-point
//     encodings (internal/paillier + internal/fixed).
//   - Plain: a pass-through scheme that ships bare 8-byte IEEE-754 values
//     while charging the same operation counts. It exists so paper-scale
//     benchmark sweeps run in seconds; the cost model prices its op counts as
//     Paillier ops, but its bytes are its own, not an encrypted deployment's.
//     Protocol correctness is always validated against the real scheme.
package he

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"vfps/internal/fixed"
	"vfps/internal/paillier"
)

// Scheme is the additive-HE operation set the protocol needs. Ciphertexts
// are opaque byte strings ready for the wire.
type Scheme interface {
	// Name identifies the scheme ("paillier" or "plain").
	Name() string
	// Encrypt encrypts a real value.
	Encrypt(v float64) ([]byte, error)
	// Decrypt recovers the (possibly aggregated) real value. Schemes
	// without the private key return ErrNoPrivateKey.
	Decrypt(c []byte) (float64, error)
	// Add homomorphically adds two ciphertexts.
	Add(a, b []byte) ([]byte, error)
	// CiphertextSize is the nominal wire size of one ciphertext, used for
	// communication accounting.
	CiphertextSize() int
}

// ErrNoPrivateKey is returned by Decrypt on public-only schemes.
var ErrNoPrivateKey = errors.New("he: no private key")

// ---- Paillier-backed scheme ----

// Paillier implements Scheme over the Paillier cryptosystem with fixed-point
// encoding. If sk is nil the scheme is encrypt/add-only.
//
// A Paillier scheme is safe for concurrent use. SetParallelism and
// StartRandomizerPool tune the vector fast paths (see vec.go); both default
// to off/serial-compatible settings so a freshly constructed scheme behaves
// exactly like the original single-threaded implementation.
type Paillier struct {
	pk     *paillier.PublicKey
	sk     *paillier.PrivateKey
	codec  *fixed.Codec
	random io.Reader

	mu          sync.RWMutex
	parallelism int                         // 0 → par.Degree()
	rz          *paillier.Randomizer        // nil until StartRandomizerPool; Close stops it
	window      int                         // fixed-base window of the pool (SetEncryptWindow)
	packer      *fixed.Packer               // nil until EnablePacking (see pack.go)
	packers     map[packerKey]*fixed.Packer // adaptive geometries from PackerFor

	hinting atomic.Bool               // one RefillHint in flight at a time
	om      atomic.Pointer[heMetrics] // nil until SetObserver; one load per op
}

// NewPaillier wraps a key pair. sk may be nil for participant-side
// (public-only) use.
func NewPaillier(pk *paillier.PublicKey, sk *paillier.PrivateKey) *Paillier {
	return &Paillier{pk: pk, sk: sk, codec: fixed.NewCodec(fixed.DefaultScaleBits), random: rand.Reader}
}

// Name implements Scheme.
func (p *Paillier) Name() string { return "paillier" }

// Encrypt implements Scheme.
func (p *Paillier) Encrypt(v float64) ([]byte, error) {
	if om := p.om.Load(); om != nil {
		defer om.op("encrypt", time.Now())
	}
	m, err := p.codec.Encode(v)
	if err != nil {
		return nil, err
	}
	var c *paillier.Ciphertext
	if rz := p.pool(); rz != nil {
		c, err = p.pk.EncryptWith(rz, m)
	} else if p.sk != nil {
		// Key holder without a pool: CRT-accelerated randomizer production.
		c, err = p.sk.Encrypt(p.random, m)
	} else {
		c, err = p.pk.Encrypt(p.random, m)
	}
	if err != nil {
		return nil, err
	}
	return p.pk.CiphertextBytes(c), nil
}

// Decrypt implements Scheme.
func (p *Paillier) Decrypt(c []byte) (float64, error) {
	if p.sk == nil {
		return 0, ErrNoPrivateKey
	}
	if om := p.om.Load(); om != nil {
		start := time.Now()
		defer func() {
			om.op("decrypt", start)
			om.dec(p.sk.HasCRT(), start)
		}()
	}
	ct, err := p.pk.ParseCiphertext(c)
	if err != nil {
		return 0, err
	}
	m, err := p.sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return p.codec.Decode(m), nil
}

// Add implements Scheme.
func (p *Paillier) Add(a, b []byte) ([]byte, error) {
	if om := p.om.Load(); om != nil {
		defer om.op("add", time.Now())
	}
	return p.add(a, b)
}

// add is Add without the metrics.
func (p *Paillier) add(a, b []byte) ([]byte, error) {
	ca, err := p.pk.ParseCiphertext(a)
	if err != nil {
		return nil, err
	}
	cb, err := p.pk.ParseCiphertext(b)
	if err != nil {
		return nil, err
	}
	c, err := p.pk.AddCipher(ca, cb)
	if err != nil {
		return nil, err
	}
	return p.pk.CiphertextBytes(c), nil
}

// CiphertextSize implements Scheme.
func (p *Paillier) CiphertextSize() int { return p.pk.CiphertextSize() }

// ---- Plain (simulated) scheme ----

// plainSize is the width of every plain ciphertext: one IEEE-754 float64.
const plainSize = 8

// Plain implements Scheme by shipping bare 8-byte IEEE-754 values. It
// preserves the protocol's data flow and operation counts while removing
// cryptographic cost; the cost model prices the counted ops at calibrated
// Paillier rates.
type Plain struct{}

// NewPlain returns a Plain scheme.
func NewPlain() *Plain { return &Plain{} }

// Name implements Scheme.
func (p *Plain) Name() string { return "plain" }

// Encrypt implements Scheme.
func (p *Plain) Encrypt(v float64) ([]byte, error) {
	b := make([]byte, plainSize)
	if err := putPlain(b, v); err != nil {
		return nil, err
	}
	return b, nil
}

// putPlain writes v's IEEE-754 bytes to the 8-byte blob b, refusing what no
// ciphertext may carry.
func putPlain(b []byte, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("he: cannot encrypt non-finite value %g", v)
	}
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
	return nil
}

// Decrypt implements Scheme, refusing any blob that is not exactly 8 bytes.
func (p *Plain) Decrypt(c []byte) (float64, error) {
	if len(c) != plainSize {
		return 0, fmt.Errorf("he: plain ciphertext must be %d bytes, got %d", plainSize, len(c))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(c)), nil
}

// Add implements Scheme.
func (p *Plain) Add(a, b []byte) ([]byte, error) {
	va, err := p.Decrypt(a)
	if err != nil {
		return nil, err
	}
	vb, err := p.Decrypt(b)
	if err != nil {
		return nil, err
	}
	return p.Encrypt(va + vb)
}

// CiphertextSize implements Scheme.
func (p *Plain) CiphertextSize() int { return plainSize }

// ---- key material serialisation (for the key server) ----

// MarshalPublicKey serialises a Paillier public key.
func MarshalPublicKey(pk *paillier.PublicKey) []byte {
	return marshalBigInts(pk.N)
}

// UnmarshalPublicKey reconstructs a public key (G and N² are derived).
func UnmarshalPublicKey(b []byte) (*paillier.PublicKey, error) {
	ints, err := unmarshalBigInts(b, 1)
	if err != nil {
		return nil, fmt.Errorf("he: bad public key: %w", err)
	}
	n := ints[0]
	return &paillier.PublicKey{
		N:  n,
		N2: new(big.Int).Mul(n, n),
		G:  new(big.Int).Add(n, big.NewInt(1)),
	}, nil
}

// MarshalPrivateKey serialises a Paillier private key. Keys carrying their
// factorisation (the normal case) marshal as five integers so the receiver
// can rebuild the CRT decryption fast path; legacy keys without P, Q marshal
// in the original three-integer format.
func MarshalPrivateKey(sk *paillier.PrivateKey) []byte {
	if sk.P != nil && sk.Q != nil {
		return marshalBigInts(sk.N, sk.Lambda, sk.Mu, sk.P, sk.Q)
	}
	return marshalBigInts(sk.N, sk.Lambda, sk.Mu)
}

// UnmarshalPrivateKey reconstructs a private key from either wire format:
// five integers (n, λ, μ, p, q — CRT-enabled) or the legacy three-integer
// layout (n, λ, μ — λ/μ decryption only).
func UnmarshalPrivateKey(b []byte) (*paillier.PrivateKey, error) {
	ints, err := unmarshalBigInts(b, 5)
	if err != nil {
		if ints3, err3 := unmarshalBigInts(b, 3); err3 == nil {
			ints = ints3
		} else {
			return nil, fmt.Errorf("he: bad private key: %w", err)
		}
	}
	n := ints[0]
	sk := &paillier.PrivateKey{
		PublicKey: paillier.PublicKey{
			N:  n,
			N2: new(big.Int).Mul(n, n),
			G:  new(big.Int).Add(n, big.NewInt(1)),
		},
		Lambda: ints[1],
		Mu:     ints[2],
	}
	if len(ints) == 5 {
		sk.P, sk.Q = ints[3], ints[4]
	}
	if err := sk.Precompute(); err != nil {
		return nil, fmt.Errorf("he: bad private key: %w", err)
	}
	return sk, nil
}

func marshalBigInts(xs ...*big.Int) []byte {
	var out []byte
	for _, x := range xs {
		b := x.Bytes()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		out = append(out, hdr[:]...)
		out = append(out, b...)
	}
	return out
}

func unmarshalBigInts(b []byte, n int) ([]*big.Int, error) {
	out := make([]*big.Int, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, errors.New("truncated header")
		}
		l := binary.BigEndian.Uint32(b[:4])
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, errors.New("truncated body")
		}
		out = append(out, new(big.Int).SetBytes(b[:l]))
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, errors.New("trailing bytes")
	}
	return out, nil
}
