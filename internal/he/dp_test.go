package he

import (
	"math"
	"testing"
)

func TestDPValidation(t *testing.T) {
	if _, err := NewDP(0, 1e-5, 1); err == nil {
		t.Fatal("expected epsilon error")
	}
	if _, err := NewDP(-1, 1e-5, 1); err == nil {
		t.Fatal("expected negative epsilon error")
	}
	if _, err := NewDP(1, 0, 1); err == nil {
		t.Fatal("expected delta error")
	}
	if _, err := NewDP(1, 1.5, 1); err == nil {
		t.Fatal("expected delta range error")
	}
}

func TestDPSigmaScalesInverselyWithEpsilon(t *testing.T) {
	weak, _ := NewDP(10, 1e-5, 1)
	strong, _ := NewDP(0.1, 1e-5, 1)
	if strong.Sigma() <= weak.Sigma() {
		t.Fatalf("stronger privacy must mean more noise: σ(0.1)=%g σ(10)=%g",
			strong.Sigma(), weak.Sigma())
	}
	if ratio := strong.Sigma() / weak.Sigma(); math.Abs(ratio-100) > 1e-9 {
		t.Fatalf("σ should scale as 1/ε: ratio %g", ratio)
	}
}

func TestDPNoiseIsUnbiasedAndCalibrated(t *testing.T) {
	d, _ := NewDP(1, 1e-5, 42)
	const n = 20000
	const truth = 5.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		c, err := d.Encrypt(truth)
		if err != nil {
			t.Fatal(err)
		}
		v, err := d.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		sumSq += (v - truth) * (v - truth)
	}
	mean := sum / n
	std := math.Sqrt(sumSq / n)
	if math.Abs(mean-truth) > 0.3 {
		t.Fatalf("noise is biased: mean %g", mean)
	}
	if math.Abs(std-d.Sigma()) > 0.25*d.Sigma() {
		t.Fatalf("empirical σ %g vs calibrated %g", std, d.Sigma())
	}
}

func TestDPSchemeOperations(t *testing.T) {
	d, _ := NewDP(100, 1e-5, 1) // huge epsilon: near-zero noise
	a, err := d.Encrypt(1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.Encrypt(2.5)
	sum, err := d.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4.0) > 1.0 {
		t.Fatalf("sum %g too far from 4 even at ε=100", v)
	}
	if d.Name() != "dp" || len(a) != 8 {
		t.Fatal("metadata wrong")
	}
	if _, err := d.Encrypt(math.NaN()); err == nil {
		t.Fatal("expected NaN error")
	}
}

func TestDPWithIndexIndependentStreams(t *testing.T) {
	tmpl, _ := NewDP(1, 1e-5, 7)
	a, err := tmpl.WithIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tmpl.WithIndex(1)
	ca, _ := a.Encrypt(0)
	cb, _ := b.Encrypt(0)
	va, _ := a.Decrypt(ca)
	vb, _ := b.Decrypt(cb)
	if va == vb {
		t.Fatal("participants must have independent noise streams")
	}
	// Same index, same draw order: reproducible.
	a2, _ := tmpl.WithIndex(0)
	ca2, _ := a2.Encrypt(0)
	va2, _ := a2.Decrypt(ca2)
	if va != va2 {
		t.Fatal("noise stream not reproducible from seed")
	}
}
