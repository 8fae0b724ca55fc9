package he

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"vfps/internal/fixed"
)

// DefaultPackIntBits bounds the integer part of each packed value: slots hold
// |v| < 2^(scaleBits+DefaultPackIntBits) in fixed point, i.e. real values up
// to ~16.7M with the default 40-bit scale — orders of magnitude above any
// squared partial distance the protocol aggregates.
const DefaultPackIntBits = 24

// ErrPackingOff reports a packed-path call on a scheme where EnablePacking
// was never called (or was undone by DisablePacking).
var ErrPackingOff = errors.New("he: packing not enabled")

// packerKey indexes the adaptive-geometry cache: one immutable Packer per
// (magnitude bound, addition budget) pair negotiated on the wire.
type packerKey struct {
	bits uint
	adds int
}

// packerCacheLimit bounds the adaptive-geometry cache. Negotiated widths are
// monotone in practice, so the cache holds a handful of entries; the bound
// only guards against a peer cycling geometries to grow it.
const packerCacheLimit = 64

// EnablePacking derives the slot-packing geometry for this scheme's key and
// installs it: EncryptPacked will lay PackFactor fixed-point values side by
// side in each plaintext, with enough per-slot headroom that up to maxAdds
// packed ciphertexts can be summed homomorphically without slot overflow
// (maxAdds is the party count in the VFPS-SM aggregation tree).
//
// The geometry uses the key's PlaintextHeadroomBits, which keeps every packed
// plaintext — and every sum of up to maxAdds of them — strictly below n/2,
// inside the positive half of the signed embedding. It fails when the key is
// too small to hold even one slot, naming the smallest key size that would
// (the failure wraps fixed.ErrPackShape); keys that fit only one slot are
// accepted (PackFactor 1), callers can check PackFactor to skip the pointless
// packed path.
func (p *Paillier) EnablePacking(maxAdds int) error {
	valueBits := p.codec.ScaleBits() + DefaultPackIntBits
	usable := p.pk.PlaintextHeadroomBits()
	packer, err := fixed.NewPacker(usable, valueBits, maxAdds)
	if errors.Is(err, fixed.ErrPackShape) {
		keyBits := uint(p.pk.N.BitLen())
		return fmt.Errorf("he: enabling packing: a %d-bit key cannot hold one slot under %d additions, KeyBits must be at least %d: %w",
			keyBits, maxAdds, fixed.SlotBits(valueBits, maxAdds)+keyBits-usable, err)
	}
	if err != nil {
		return fmt.Errorf("he: enabling packing: %w", err)
	}
	p.mu.Lock()
	p.packer = packer
	p.mu.Unlock()
	return nil
}

// DisablePacking removes the packing geometry; packed calls fail again with
// ErrPackingOff.
func (p *Paillier) DisablePacking() {
	p.mu.Lock()
	p.packer = nil
	p.packers = nil
	p.mu.Unlock()
}

// PackFactor reports how many values ride in one ciphertext: S after
// EnablePacking, 1 otherwise.
func (p *Paillier) PackFactor() int {
	if packer := p.packing(); packer != nil {
		return packer.Slots()
	}
	return 1
}

// MaxPackAdds reports the addition budget the packing headroom covers, 0 when
// packing is off.
func (p *Paillier) MaxPackAdds() int {
	if packer := p.packing(); packer != nil {
		return packer.MaxAdds()
	}
	return 0
}

// PackedCiphertexts returns how many ciphertexts carry n packed values:
// ceil(n / PackFactor).
func (p *Paillier) PackedCiphertexts(n int) int {
	s := p.PackFactor()
	return (n + s - 1) / s
}

func (p *Paillier) packing() *fixed.Packer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.packer
}

// Packer returns the static geometry installed by EnablePacking (nil when
// packing is off), for callers that mix static and PackerFor geometries
// through EncryptPackedWith/DecryptPackedWith.
func (p *Paillier) Packer() *fixed.Packer { return p.packing() }

// PackerFor returns the packing geometry for an adaptively negotiated slot
// width: valueBits bounds each value's magnitude, adds is the aggregation
// depth the headroom must cover. Geometries are cached per (valueBits, adds).
// Packing must be enabled; an impossible geometry — a non-positive depth, or
// a slot too wide for the key's plaintext headroom — surfaces the typed
// fixed.ErrPackAdds / fixed.ErrPackShape errors, which is the hard backstop
// against a peer advertising a depth the key cannot honour.
func (p *Paillier) PackerFor(valueBits uint, adds int) (*fixed.Packer, error) {
	if p.packing() == nil {
		return nil, ErrPackingOff
	}
	key := packerKey{bits: valueBits, adds: adds}
	p.mu.RLock()
	cached := p.packers[key]
	p.mu.RUnlock()
	if cached != nil {
		return cached, nil
	}
	packer, err := fixed.NewPacker(p.pk.PlaintextHeadroomBits(), valueBits, adds)
	if err != nil {
		return nil, fmt.Errorf("he: adaptive packing geometry (V=%d, adds=%d): %w", valueBits, adds, err)
	}
	p.mu.Lock()
	if p.packers == nil || len(p.packers) >= packerCacheLimit {
		p.packers = make(map[packerKey]*fixed.Packer)
	}
	p.packers[key] = packer
	p.mu.Unlock()
	return packer, nil
}

// NeededPackBits reports the smallest per-slot magnitude bound, in bits, that
// admits every value of vs under this scheme's fixed-point encoding (floor 1
// so an all-zero vector still yields a valid geometry). Parties advertise
// this bound during adaptive pack negotiation; the aggregator dictates the
// densest safe slot width from the observed maximum.
func (p *Paillier) NeededPackBits(vs []float64) (uint, error) {
	ms := make([]*big.Int, len(vs))
	for i, v := range vs {
		m, err := p.codec.Encode(v)
		if err != nil {
			return 0, err
		}
		ms[i] = m
	}
	return fixed.NeededBits(ms), nil
}

// EncryptPacked encrypts vs into ceil(len(vs)/PackFactor) ciphertexts,
// PackFactor values per plaintext (the last one partially filled). It shares
// the scalar path's randomizer pool and worker-pool parallelism; only the
// exponentiation count shrinks. The ciphertext sequence is aggregation-
// compatible slot by slot: summing the i-th packed ciphertext of several
// parties and decrypting with DecryptPacked yields the per-slot sums.
func (p *Paillier) EncryptPacked(ctx context.Context, vs []float64) ([][]byte, error) {
	packer := p.packing()
	if packer == nil {
		return nil, ErrPackingOff
	}
	return p.encryptPacked(ctx, packer, vs)
}

// EncryptPackedWith is EncryptPacked under an explicit geometry from
// PackerFor — the adaptive path, where the slot width was negotiated per
// round instead of fixed at EnablePacking time.
func (p *Paillier) EncryptPackedWith(ctx context.Context, packer *fixed.Packer, vs []float64) ([][]byte, error) {
	if packer == nil {
		return nil, ErrPackingOff
	}
	return p.encryptPacked(ctx, packer, vs)
}

func (p *Paillier) encryptPacked(ctx context.Context, packer *fixed.Packer, vs []float64) ([][]byte, error) {
	if om := p.om.Load(); om != nil {
		om.slots(packer.Slots())
		defer om.vec("encrypt_packed", len(vs), time.Now())
	}
	s := packer.Slots()
	ms := make([]*big.Int, 0, (len(vs)+s-1)/s)
	slots := make([]*big.Int, 0, s)
	for lo := 0; lo < len(vs); lo += s {
		slots = slots[:0]
		for _, v := range vs[lo:min(lo+s, len(vs))] {
			m, err := p.codec.Encode(v)
			if err != nil {
				return nil, err
			}
			slots = append(slots, m)
		}
		m, err := packer.Pack(slots)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
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

// DecryptPacked recovers count real values from packed ciphertexts that are
// each the homomorphic sum of adds EncryptPacked outputs (adds == 1 for
// never-summed ciphertexts). adds must not exceed the headroom budget passed
// to EnablePacking. len(cs) must equal PackedCiphertexts(count).
func (p *Paillier) DecryptPacked(ctx context.Context, cs [][]byte, count, adds int) ([]float64, error) {
	packer := p.packing()
	if packer == nil {
		return nil, ErrPackingOff
	}
	return p.DecryptPackedWith(ctx, cs, count, packer, adds)
}

// DecryptPackedWith is DecryptPacked under an explicit geometry from
// PackerFor, for vectors packed with an adaptively negotiated slot width.
func (p *Paillier) DecryptPackedWith(ctx context.Context, cs [][]byte, count int, packer *fixed.Packer, adds int) ([]float64, error) {
	if p.sk == nil {
		return nil, ErrNoPrivateKey
	}
	if packer == nil {
		return nil, ErrPackingOff
	}
	s := packer.Slots()
	if count < 0 || len(cs) != (count+s-1)/s {
		return nil, fmt.Errorf("he: %d packed ciphertexts cannot hold %d values (want %d)",
			len(cs), count, (count+s-1)/s)
	}
	if om := p.om.Load(); om != nil {
		om.slots(s)
		start := time.Now()
		defer func() {
			om.vec("decrypt_packed", count, start)
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
	out := make([]float64, 0, count)
	for i, m := range ms {
		n := min(s, count-i*s)
		vals, err := packer.Unpack(m, n, adds)
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			out = append(out, p.codec.Decode(v))
		}
	}
	return out, nil
}
