package he

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vfps/internal/fixed"
)

// TestAdaptiveGeometryNeverOverflows is the adaptive-packing safety property:
// for any value vector and any aggregation depth, the slot width chosen from
// NeededPackBits at that depth must decode exact per-slot sums after the full
// addition budget is spent — the densest safe S never admits slot overflow.
// Each trial aggregates the same extreme-magnitude vector `adds` times, the
// worst case the headroom is provisioned for.
func TestAdaptiveGeometryNeverOverflows(t *testing.T) {
	p := packedScheme(t, 512, 4)
	ctx := context.Background()
	usable := p.pk.PlaintextHeadroomBits()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		adds := 1 + rng.Intn(6)
		n := 1 + rng.Intn(2*p.PackFactor()+1)
		mag := math.Ldexp(1, rng.Intn(10)-3) // magnitudes from 2^-3 to 2^6
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = (rng.Float64()*2 - 1) * mag
		}
		vs[0] = mag // pin the advertised bound to the extreme value
		bits, err := p.NeededPackBits(vs)
		if err != nil {
			t.Fatal(err)
		}
		packer, err := p.PackerFor(bits, adds)
		if err != nil {
			t.Fatalf("trial %d (V=%d adds=%d): %v", trial, bits, adds, err)
		}
		if got := packer.Slots() * int(packer.SlotBits()); got > int(usable) {
			t.Fatalf("trial %d: geometry S=%d W=%d uses %d bits of %d usable",
				trial, packer.Slots(), packer.SlotBits(), got, usable)
		}
		var agg [][]byte
		for a := 0; a < adds; a++ {
			cs, err := p.EncryptPackedWith(ctx, packer, vs)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if agg == nil {
				agg = cs
				continue
			}
			for i := range cs {
				if agg[i], err = p.Add(agg[i], cs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := p.DecryptPackedWith(ctx, agg, n, packer, adds)
		if err != nil {
			t.Fatalf("trial %d (V=%d adds=%d): %v", trial, bits, adds, err)
		}
		for i := range vs {
			want := vs[i] * float64(adds)
			if math.Abs(got[i]-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d slot %d (V=%d adds=%d): got %g want %g — slot overflow",
					trial, i, bits, adds, got[i], want)
			}
		}
	}
}

// TestPackerForRejectsImpossibleDepth pins the typed backstop: a peer
// advertising a non-positive aggregation depth, a depth beyond the decoded
// headroom, or a slot wider than the key's plaintext capacity must surface
// fixed.ErrPackAdds / fixed.ErrPackShape, never a silent wrong geometry.
func TestPackerForRejectsImpossibleDepth(t *testing.T) {
	p := packedScheme(t, 512, 4)
	ctx := context.Background()
	for _, adds := range []int{0, -3} {
		if _, err := p.PackerFor(40, adds); !errors.Is(err, fixed.ErrPackAdds) {
			t.Fatalf("PackerFor(40, %d) = %v, want fixed.ErrPackAdds", adds, err)
		}
	}
	wide := p.pk.PlaintextHeadroomBits() + 10
	if _, err := p.PackerFor(wide, 1); !errors.Is(err, fixed.ErrPackShape) {
		t.Fatalf("PackerFor(%d, 1) = %v, want fixed.ErrPackShape", wide, err)
	}

	// A ciphertext packed for depth 2 must refuse to unpack at depth 3.
	vs := []float64{1.5, -2.25}
	bits, err := p.NeededPackBits(vs)
	if err != nil {
		t.Fatal(err)
	}
	packer, err := p.PackerFor(bits, 2)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := p.EncryptPackedWith(ctx, packer, vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DecryptPackedWith(ctx, cs, 2, packer, 3); !errors.Is(err, fixed.ErrPackAdds) {
		t.Fatalf("decrypt beyond headroom = %v, want fixed.ErrPackAdds", err)
	}

	// With packing off, adaptive geometries are unavailable entirely.
	off := NewPaillier(p.pk, p.sk)
	if _, err := off.PackerFor(20, 2); !errors.Is(err, ErrPackingOff) {
		t.Fatalf("PackerFor without packing = %v, want ErrPackingOff", err)
	}
}
