package fixed

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Slot packing amortises one Paillier exponentiation over several fixed-point
// values: S values are laid side by side inside a single plaintext integer,
// each in a W-bit slot wide enough that up to maxAdds homomorphic additions
// can never carry into the neighbouring slot.
//
// Signed values are stored with a bias. A slot value x with |x| < 2^V is
// written as x + 2^V ∈ (0, 2^(V+1)); after summing A ≤ maxAdds packed
// plaintexts each slot holds Σx_i + A·2^V, and the decoder subtracts the
// known A·2^V. The slot width is therefore
//
//	W = V + 1 + ceil(log2(maxAdds))
//
// which guarantees A·(2^(V+1)−1) < 2^W — sums of A biased slots cannot
// overflow even when every addend sits at the magnitude bound.

// Typed packing errors, so callers can distinguish capacity misuse from
// malformed data.
var (
	// ErrPackValueRange reports a value whose magnitude exceeds the slot's
	// value range (|x| must be < 2^ValueBits).
	ErrPackValueRange = errors.New("fixed: value exceeds slot range")
	// ErrPackShape reports a structurally invalid pack or unpack request:
	// zero or too many values, or a packed integer that does not fit the
	// declared slot count.
	ErrPackShape = errors.New("fixed: bad pack shape")
	// ErrPackAdds reports an addition count outside [1, MaxAdds] — beyond
	// MaxAdds the slot headroom guarantee no longer holds.
	ErrPackAdds = errors.New("fixed: addition count outside packed headroom")
)

// Packer packs up to Slots signed fixed-point integers into one plaintext.
// A Packer is immutable and safe for concurrent use.
type Packer struct {
	valueBits uint     // V: magnitude bound, |x| < 2^V
	slotBits  uint     // W: full slot width including sign bias and headroom
	slots     int      // S: how many slots fit the usable plaintext bits
	maxAdds   int      // A: additions the headroom is provisioned for
	bias      *big.Int // 2^V
	slotMask  *big.Int // 2^W − 1
}

// NewPacker derives the packing geometry. usableBits is the number of
// plaintext bits the carrier offers (for Paillier: modulus bits minus the
// sign-split margin), valueBits bounds each value's magnitude (|x| < 2^V,
// i.e. fractional scale bits plus integer bits), and maxAdds is the largest
// number of packed plaintexts that will ever be summed homomorphically.
// It fails when not even one slot fits.
func NewPacker(usableBits, valueBits uint, maxAdds int) (*Packer, error) {
	if valueBits == 0 {
		return nil, fmt.Errorf("%w: zero value bits", ErrPackShape)
	}
	if maxAdds < 1 {
		return nil, fmt.Errorf("%w: maxAdds %d", ErrPackAdds, maxAdds)
	}
	slotBits := SlotBits(valueBits, maxAdds)
	slots := int(usableBits / slotBits)
	if slots < 1 {
		return nil, fmt.Errorf("%w: %d usable bits cannot hold a %d-bit slot",
			ErrPackShape, usableBits, slotBits)
	}
	one := big.NewInt(1)
	return &Packer{
		valueBits: valueBits,
		slotBits:  slotBits,
		slots:     slots,
		maxAdds:   maxAdds,
		bias:      new(big.Int).Lsh(one, valueBits),
		slotMask:  new(big.Int).Sub(new(big.Int).Lsh(one, slotBits), one),
	}, nil
}

// SlotBits returns W for a geometry: the value bits, one sign-bias bit and the
// carry headroom of summing maxAdds (≥ 1) packed plaintexts. A carrier needs
// at least this many usable bits to hold one slot.
func SlotBits(valueBits uint, maxAdds int) uint {
	return valueBits + 1 + uint(bits.Len(uint(maxAdds-1)))
}

// Slots returns S, the pack factor.
func (p *Packer) Slots() int { return p.slots }

// SlotBits returns W, the per-slot width in bits.
func (p *Packer) SlotBits() uint { return p.slotBits }

// ValueBits returns V, the per-value magnitude bound exponent.
func (p *Packer) ValueBits() uint { return p.valueBits }

// MaxAdds returns A, the addition budget the headroom covers.
func (p *Packer) MaxAdds() int { return p.maxAdds }

// NeededBits reports the smallest valueBits bound that admits every value in
// vals (Pack accepts BitLen ≤ ValueBits), with a floor of 1 so an all-zero
// batch still yields a valid geometry. It is the measurement half of adaptive
// packing: parties advertise this bound, the aggregator dictates the densest
// safe slot width from the observed maximum.
func NeededBits(vals []*big.Int) uint {
	need := 1
	for _, v := range vals {
		if l := v.BitLen(); l > need {
			need = l
		}
	}
	return uint(need)
}

// Pack lays vals out into one plaintext, vals[0] in the least-significant
// slot. It accepts 1..Slots values and enforces the magnitude bound on each.
func (p *Packer) Pack(vals []*big.Int) (*big.Int, error) {
	if len(vals) < 1 || len(vals) > p.slots {
		return nil, fmt.Errorf("%w: %d values for %d slots", ErrPackShape, len(vals), p.slots)
	}
	m := new(big.Int)
	slot := new(big.Int)
	for i, v := range vals {
		if v.BitLen() > int(p.valueBits) {
			return nil, fmt.Errorf("%w: |value[%d]| has %d bits, slot holds %d",
				ErrPackValueRange, i, v.BitLen(), p.valueBits)
		}
		slot.Add(v, p.bias)
		m.Or(m, slot.Lsh(slot, uint(i)*p.slotBits))
	}
	return m, nil
}

// Unpack splits a packed plaintext that is the homomorphic sum of adds packed
// vectors (adds == 1 for a never-added ciphertext) back into count per-slot
// sums, subtracting the accumulated adds·2^V bias from each.
func (p *Packer) Unpack(m *big.Int, count, adds int) ([]*big.Int, error) {
	if count < 1 || count > p.slots {
		return nil, fmt.Errorf("%w: %d slots requested of %d", ErrPackShape, count, p.slots)
	}
	if adds < 1 || adds > p.maxAdds {
		return nil, fmt.Errorf("%w: %d additions, headroom covers %d", ErrPackAdds, adds, p.maxAdds)
	}
	if m.Sign() < 0 || m.BitLen() > count*int(p.slotBits) {
		return nil, fmt.Errorf("%w: packed integer has %d bits, %d slots hold %d",
			ErrPackShape, m.BitLen(), count, count*int(p.slotBits))
	}
	totalBias := new(big.Int).Mul(p.bias, big.NewInt(int64(adds)))
	out := make([]*big.Int, count)
	rest := new(big.Int).Set(m)
	for i := 0; i < count; i++ {
		slot := new(big.Int).And(rest, p.slotMask)
		out[i] = slot.Sub(slot, totalBias)
		rest.Rsh(rest, p.slotBits)
	}
	return out, nil
}
