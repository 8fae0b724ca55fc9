package costmodel

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestAddAndSnapshot(t *testing.T) {
	var c Counts
	c.Add(Raw{Encryptions: 2, ItemsSent: 5})
	c.Add(Raw{Encryptions: 3, Decryptions: 1})
	s := c.Snapshot()
	if s.Encryptions != 5 || s.Decryptions != 1 || s.ItemsSent != 5 {
		t.Fatalf("snapshot %+v", s)
	}
}

// TestChargeReachesTheInnermostAccumulator pins the per-call ledger: Charge
// adds to the accumulator the nearest WithCounts opened, never to an outer
// one, and is a no-op on a ctx without one.
func TestChargeReachesTheInnermostAccumulator(t *testing.T) {
	Charge(context.Background(), Raw{Encryptions: 1})
	outerCtx, outer := WithCounts(context.Background())
	Charge(outerCtx, Raw{Encryptions: 2})
	innerCtx, inner := WithCounts(outerCtx)
	Charge(innerCtx, Raw{Encryptions: 3, BytesSent: 4})
	if got := outer.Snapshot(); got != (Raw{Encryptions: 2}) {
		t.Fatalf("outer accumulator = %+v, want only its own charge", got)
	}
	if got := inner.Snapshot(); got != (Raw{Encryptions: 3, BytesSent: 4}) {
		t.Fatalf("inner accumulator = %+v", got)
	}
}

func TestConcurrentAdd(t *testing.T) {
	var c Counts
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Add(Raw{PlainAdds: 1, Messages: 2})
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.PlainAdds != 100 || s.Messages != 200 {
		t.Fatalf("concurrent adds lost: %+v", s)
	}
}

func TestWireBytesBreakdown(t *testing.T) {
	// The payload/framing split must accumulate independently and sum to the
	// total traffic the pre-split revisions reported as BytesSent.
	var c Counts
	c.Add(Raw{BytesSent: 100, FramingBytes: 7})
	c.Add(Raw{BytesSent: 50, FramingBytes: 3})
	s := c.Snapshot()
	if s.BytesSent != 150 || s.FramingBytes != 10 {
		t.Fatalf("breakdown wrong: %+v", s)
	}
	if s.WireBytes() != 160 {
		t.Fatalf("WireBytes = %d, want payload+framing = 160", s.WireBytes())
	}
	if !strings.Contains(s.String(), "framing=10") {
		t.Fatalf("String() misses framing: %q", s.String())
	}
}

func TestString(t *testing.T) {
	s := Raw{Encryptions: 3}.String()
	if !strings.Contains(s, "enc=3") {
		t.Fatalf("String() = %q", s)
	}
}

func TestSecondsLinear(t *testing.T) {
	m := Model{Beta: 1, PhiE: 10, PhiD: 100, Gamma: 1000, Delta: 1e4, Eta: 1e5, Latency: 1e6}
	r := Raw{DistanceFlops: 1, Encryptions: 1, Decryptions: 1, CipherAdds: 1, PlainAdds: 1, ItemsSent: 1, Messages: 1}
	want := 1.0 + 10 + 100 + 1000 + 1e4 + 1e5 + 1e6
	if got := m.Seconds(r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Seconds = %g, want %g", got, want)
	}
}

func TestDefaultDominatedByEncryption(t *testing.T) {
	// The paper's premise: HE item operations dominate. One encryption must
	// cost orders of magnitude more than one plaintext add or one flop.
	if Default.PhiE < 1e4*Default.Delta || Default.PhiE < 1e4*Default.Beta {
		t.Fatal("default model does not make encryption dominant")
	}
	// And projecting a BASE-style run (N encryptions) must exceed a
	// Fagin-style run (N/20 encryptions) by roughly the candidate ratio.
	base := Default.Seconds(Raw{Encryptions: 100000})
	fagin := Default.Seconds(Raw{Encryptions: 5000})
	if ratio := base / fagin; ratio < 15 || ratio > 25 {
		t.Fatalf("encryption-count ratio not preserved: %g", ratio)
	}
}
