package he

import (
	"crypto/rand"
	"testing"
	"time"

	"vfps/internal/paillier"
)

func poolTestKey(t *testing.T) *paillier.PrivateKey {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestAttachPoolOwnership checks that every pool is owned by the scheme that
// started it: the scheme's Close stops the pool and drops its reference.
func TestAttachPoolOwnership(t *testing.T) {
	sk := poolTestKey(t)
	own := NewPaillier(&sk.PublicKey, nil)
	own.StartRandomizerPool(2, 1)
	ownRz := own.pool()
	if ownRz == nil {
		t.Fatal("StartRandomizerPool installed no pool")
	}
	own.Close()
	if !ownRz.Closed() {
		t.Fatal("scheme Close left its own pool running")
	}
	if own.pool() != nil {
		t.Fatal("scheme still references the pool after Close")
	}
}

// TestRefillHint verifies the hint asynchronously tops up the pool and that
// redundant hints collapse into the one in flight.
func TestRefillHint(t *testing.T) {
	sk := poolTestKey(t)
	p := NewPaillier(&sk.PublicKey, nil)
	// Workers: -1 gives a pure pull pool (no background fillers), so depth
	// only moves when the hint's Prefill runs.
	p.mu.Lock()
	p.rz = paillier.NewRandomizerOpts(&sk.PublicKey, rand.Reader, paillier.PoolOptions{Buffer: 8, Workers: -1})
	p.mu.Unlock()
	defer p.Close()

	p.RefillHint(3)
	deadline := time.Now().Add(10 * time.Second)
	for p.pool().Depth() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := p.pool().Depth(); d < 3 {
		t.Fatalf("Depth after RefillHint = %d, want >= 3", d)
	}

	// Hints on schemes without pools (or closed pools) are dropped silently.
	none := NewPaillier(&sk.PublicKey, nil)
	none.RefillHint(5)
	NewPlain().RefillHint(5)
}
