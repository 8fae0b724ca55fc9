package paillier

import (
	"crypto/rand"
	"testing"
	"time"
)

// waitWorkers fails the test if the pool's background goroutines are still
// running after the deadline.
func waitWorkers(t *testing.T, rz *Randomizer) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		rz.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("randomizer workers still running after close")
	}
}

// TestRandomizerCloseStopsWorkers verifies Close releases every fill
// goroutine, including workers parked on a full buffer.
func TestRandomizerCloseStopsWorkers(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	rz := NewRandomizer(&sk.PublicKey, rand.Reader, 4, 3)
	// Let the workers fill the buffer so at least some of them block in the
	// send path before Close fires.
	deadline := time.Now().Add(10 * time.Second)
	for rz.Depth() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rz.Close()
	waitWorkers(t, rz)
	// A closed pool reports zero depth (the obs gauge must not show stale
	// precomputed values) and its buffer is drained once the workers exit.
	if d := rz.Depth(); d != 0 {
		t.Fatalf("Depth after Close = %d, want 0", d)
	}
	if len(rz.ch) != 0 {
		t.Fatalf("pool buffer holds %d values after Close drain", len(rz.ch))
	}
	// Next falls back to inline compute after Close.
	for i := 0; i < 6; i++ {
		if _, err := rz.Next(); err != nil {
			t.Fatalf("Next after Close: %v", err)
		}
	}
}
