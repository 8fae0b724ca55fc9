package paillier

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyReader fails its first `failures` reads with a transient error, then
// delegates to crypto/rand. It reproduces the entropy hiccup that used to
// kill pool workers permanently.
type flakyReader struct {
	mu       sync.Mutex
	failures int
	reads    int
}

var errEntropy = errors.New("transient entropy failure")

func (f *flakyReader) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.failures > 0 {
		f.failures--
		return 0, errEntropy
	}
	return rand.Read(p)
}

// deadReader always fails — the pathological source the backoff cap guards
// against.
type deadReader struct{ reads atomic.Int64 }

func (d *deadReader) Read(p []byte) (int, error) {
	d.reads.Add(1)
	return 0, errEntropy
}

// TestRandomizerSurvivesTransientEntropyError is the headline regression
// test: a pool whose entropy source errors once must keep its worker, count
// the failure, and refill to full depth once the source recovers. Before the
// fix, fill() returned on the first error and the pool silently died.
func TestRandomizerSurvivesTransientEntropyError(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	rz := NewRandomizer(&sk.PublicKey, &flakyReader{failures: 1}, 4, 1)
	defer rz.Close()
	deadline := time.Now().Add(10 * time.Second)
	for rz.Depth() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := rz.Depth(); d < 4 {
		t.Fatalf("pool never recovered from transient entropy error: depth %d, stats %+v", d, rz.Stats())
	}
	if s := rz.Stats(); s.Errors < 1 {
		t.Fatalf("entropy failure not counted: %+v", s)
	}
	// The pool stays fully usable.
	if _, err := sk.PublicKey.EncryptWith(rz, big.NewInt(42)); err != nil {
		t.Fatalf("EncryptWith after recovery: %v", err)
	}
}

// TestRandomizerErrorHookAndBackoff checks that every failure fires the
// error hook (the obs-counter bridge) and that a permanently dead source
// retries with bounded backoff instead of spinning — and that Close
// interrupts a worker parked in its backoff sleep.
func TestRandomizerErrorHookAndBackoff(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	dead := &deadReader{}
	rz := NewRandomizer(&sk.PublicKey, dead, 2, 1)
	var hooked atomic.Int64
	rz.SetErrorHook(func() { hooked.Add(1) })
	deadline := time.Now().Add(10 * time.Second)
	for rz.Stats().Errors < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := rz.Stats(); s.Errors < 3 {
		t.Fatalf("worker stopped retrying: %+v", s)
	}
	if hooked.Load() < 1 {
		t.Fatal("error hook never fired")
	}
	// Backoff bounds the retry rate: after the first few attempts the worker
	// sleeps between reads, so the read count stays far below a spin loop's.
	time.Sleep(50 * time.Millisecond)
	if n := dead.reads.Load(); n > 200 {
		t.Fatalf("dead source read %d times in ~50ms — backoff not applied", n)
	}
	start := time.Now()
	rz.Close()
	waitWorkers(t, rz)
	if waited := time.Since(start); waited > 2*fillBackoffMax {
		t.Fatalf("Close took %v, want prompt interrupt of the backoff sleep", waited)
	}
	// Inline fallback reports the entropy error instead of hanging.
	if _, err := rz.Next(); !errors.Is(err, errEntropy) {
		t.Fatalf("Next with dead source: %v, want %v", err, errEntropy)
	}
}

// TestRandomizerNextCloseRace hammers Next from many goroutines while the
// pool is closed mid-flight: no send-on-closed panics (the value channel is
// never closed), and no randomizer is ever handed out twice (every returned
// *big.Int is a distinct allocation). Run under -race this also exercises
// the Depth/Stats/drain synchronisation.
func TestRandomizerNextCloseRace(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	rz := NewRandomizer(&sk.PublicKey, rand.Reader, 8, 4)
	var seen sync.Map
	var dup atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rn, err := rz.Next()
				if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
				if _, loaded := seen.LoadOrStore(rn, true); loaded {
					dup.Store(true)
				}
				rz.Depth()
				rz.Stats()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	rz.Close()
	wg.Wait()
	if dup.Load() {
		t.Fatal("a randomizer was handed out twice")
	}
	waitWorkers(t, rz)
	if d := rz.Depth(); d != 0 {
		t.Fatalf("Depth after close = %d, want 0", d)
	}
}

// TestPrefillAfterCloseAddsNothing pins the close contract: a closed pool
// accepts no new values, so the drain cannot race a concurrent Prefill into
// a stale non-zero depth.
func TestPrefillAfterCloseAddsNothing(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	rz := NewRandomizer(&sk.PublicKey, rand.Reader, 4, 1)
	rz.Close()
	waitWorkers(t, rz)
	if added, err := rz.Prefill(3); err != nil || added != 0 {
		t.Fatalf("Prefill on closed pool added %d (%v), want 0", added, err)
	}
	if len(rz.ch) != 0 {
		t.Fatalf("closed pool still buffers %d values", len(rz.ch))
	}
}

// meteredReader counts the entropy bytes drawn from crypto/rand: every
// randomizer computed reads some, so zero bytes means zero work.
type meteredReader struct{ bytes atomic.Int64 }

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := rand.Read(p)
	m.bytes.Add(int64(n))
	return n, err
}

// TestPrefillFullPoolComputesNothing pins that Prefill checks spare capacity
// before computing: on a full pool it reads no entropy, so a RefillHint that
// races the fill workers for the last slots throws no randomizer away.
func TestPrefillFullPoolComputesNothing(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	src := &meteredReader{}
	rz := NewRandomizerOpts(&sk.PublicKey, src, PoolOptions{Buffer: 4, Workers: -1})
	defer rz.Close()
	if added, err := rz.Prefill(4); err != nil || added != 4 {
		t.Fatalf("Prefill on an empty pool added %d (%v), want 4", added, err)
	}
	before := src.bytes.Load()
	if added, err := rz.Prefill(3); err != nil || added != 0 {
		t.Fatalf("Prefill on a full pool added %d (%v), want 0", added, err)
	}
	if read := src.bytes.Load() - before; read != 0 {
		t.Fatalf("Prefill on a full pool read %d entropy bytes, want 0 (it computed a randomizer and dropped it)", read)
	}
}

var _ io.Reader = (*flakyReader)(nil)
