package paillier

import (
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// Randomizer precomputes encryption randomizers r^n mod n² into a bounded
// pool. The modexp is ~99% of Paillier encryption cost and is independent of
// the message, so background goroutines can compute randomizers during idle
// time; Encrypt then collapses to two modular multiplications on the fast
// path. Each pooled value is consumed exactly once (channel semantics — the
// channel is never closed and is the only hand-out path, so no randomizer is
// ever issued twice), and ciphertext randomness is never reused.
//
// Production goes through an rnSource (fixed-base comb tables, optionally
// CRT-accelerated for a key holder; see fixedbase.go), so even the pool-miss
// fallback is ~3× cheaper than a full modexp once the one-time table is
// built.
//
// A Randomizer is safe for concurrent use. Close stops the background
// workers and empties the pool; Next keeps working after Close by computing
// inline.
type Randomizer struct {
	pk      *PublicKey
	random  io.Reader
	src     *rnSource
	ch      chan *big.Int
	done    chan struct{}
	once    sync.Once
	closed  atomic.Bool
	fillers sync.WaitGroup // fill goroutines only (Close's drain waits on these)
	workers sync.WaitGroup // fill goroutines plus Close's drain

	hits, misses, errs atomic.Int64
	errHook            atomic.Value // func(), invoked on every entropy failure
}

// PoolStats is a point-in-time snapshot of pool effectiveness: Hits counts
// draws served from the pool, Misses draws that fell back to inline
// computation, and Errors entropy-read failures (each retried with backoff,
// never fatal to a worker).
type PoolStats struct {
	Hits, Misses, Errors int64
}

// PoolOptions tunes a randomizer pool beyond the buffer/worker pair.
type PoolOptions struct {
	// Buffer bounds the pool (<= 0 → 64).
	Buffer int
	// Workers is the number of background fill goroutines (0 → 1; negative →
	// none, leaving a pure source whose Next always computes inline through
	// the comb tables — useful for benchmarks and single-shot callers).
	Workers int
	// Window is the fixed-base window width in bits: 0 selects DefaultWindow,
	// negative restores classic uniform-r sampling with a full modexp per
	// randomizer (see SECURITY.md on the subgroup trade-off).
	Window int
	// Key optionally carries the private key so production runs the CRT
	// half-width path — for the key holder only.
	Key *PrivateKey
}

// fill retry backoff bounds: a transient entropy failure retries almost
// immediately, repeated failures back off exponentially to the cap so a dead
// entropy source costs ~4 wakeups/second, not a spin loop.
const (
	fillBackoffMin = time.Millisecond
	fillBackoffMax = 250 * time.Millisecond
)

// NewRandomizer starts a pool of precomputed randomizers for pk, filled by
// the given number of background workers (minimum 1) into a buffer of the
// given size (default 64 when <= 0). random must tolerate the pool's
// internally serialised concurrent reads; crypto/rand.Reader is the usual
// choice. Production uses fixed-base comb tables sized by DefaultWindow; use
// NewRandomizerOpts to tune or disable it.
func NewRandomizer(pk *PublicKey, random io.Reader, buffer, workers int) *Randomizer {
	return NewRandomizerOpts(pk, random, PoolOptions{Buffer: buffer, Workers: workers})
}

// NewRandomizerOpts is NewRandomizer with full control over the production
// strategy (window width, CRT key, workerless source mode).
func NewRandomizerOpts(pk *PublicKey, random io.Reader, opt PoolOptions) *Randomizer {
	if opt.Buffer <= 0 {
		opt.Buffer = 64
	}
	workers := opt.Workers
	if workers == 0 {
		workers = 1
	}
	if workers < 0 {
		workers = 0
	}
	rz := &Randomizer{
		pk:     pk,
		random: random,
		src:    newRnSource(pk, opt.Key, opt.Window),
		ch:     make(chan *big.Int, opt.Buffer),
		done:   make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		rz.fillers.Add(1)
		rz.workers.Add(1)
		go rz.fill()
	}
	return rz
}

// SetErrorHook installs f to be called on every entropy failure, in addition
// to the Errors counter — the bridge to an observability counter. Passing nil
// removes the hook.
func (rz *Randomizer) SetErrorHook(f func()) {
	rz.errHook.Store(f)
}

// fail records one entropy failure.
func (rz *Randomizer) fail() {
	rz.errs.Add(1)
	if f, _ := rz.errHook.Load().(func()); f != nil {
		f()
	}
}

// value computes one randomizer inline through the source.
func (rz *Randomizer) value() (*big.Int, error) {
	rn, err := rz.src.value(rz.random)
	if err != nil {
		rz.fail()
		return nil, err
	}
	return rn, nil
}

// fill is the background producer loop. Entropy-read failures are transient
// by assumption (a depleted or briefly erroring source recovers): the worker
// retries with capped exponential backoff and counts the failure instead of
// exiting, so one hiccup never silently degrades every subsequent Encrypt to
// an inline modexp. The only exit is pool close.
func (rz *Randomizer) fill() {
	defer rz.workers.Done()
	defer rz.fillers.Done()
	backoff := fillBackoffMin
	for {
		select {
		case <-rz.done:
			return
		default:
		}
		rn, err := rz.value()
		if err != nil {
			select {
			case <-rz.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > fillBackoffMax {
				backoff = fillBackoffMax
			}
			continue
		}
		backoff = fillBackoffMin
		select {
		case rz.ch <- rn:
		case <-rz.done:
			return
		}
	}
}

// Next returns a fresh randomizer, preferring the precomputed pool and
// computing inline when the pool is empty — it never blocks waiting for the
// background workers. The miss path deliberately does not rendezvous with a
// worker that may be mid-fill: pairing them up would trade one cheap
// windowed computation for a latency-coupling channel dance, and the
// mid-fill value lands in the pool for the next caller anyway.
func (rz *Randomizer) Next() (*big.Int, error) {
	select {
	case rn := <-rz.ch:
		rz.hits.Add(1)
		return rn, nil
	default:
		rz.misses.Add(1)
		return rz.value()
	}
}

// Prefill synchronously computes up to n randomizers into the pool (bounded
// by spare buffer capacity) and returns how many were added. Call it at
// startup — or between protocol rounds, when the party is otherwise idle —
// to guarantee the next burst of encryptions hits the fast path. A closed
// pool accepts nothing. Spare capacity is checked before each value is
// computed, so a full pool costs no work; only a value whose slot a fill
// worker took in the meantime is dropped, and Prefill never blocks.
func (rz *Randomizer) Prefill(n int) (int, error) {
	added := 0
	for added < n && !rz.closed.Load() && len(rz.ch) < cap(rz.ch) {
		rn, err := rz.value()
		if err != nil {
			return added, err
		}
		select {
		case rz.ch <- rn:
			added++
		default:
			return added, nil // a fill worker took the last slot
		}
	}
	return added, nil
}

// Depth reports how many precomputed randomizers are currently pooled — the
// observability gauge that shows whether the background workers keep up with
// encryption demand. A closed pool reports 0 immediately, even while the
// drain of leftover values is still in flight.
func (rz *Randomizer) Depth() int {
	if rz.closed.Load() {
		return 0
	}
	return len(rz.ch)
}

// Stats snapshots the pool's hit/miss/error counters.
func (rz *Randomizer) Stats() PoolStats {
	return PoolStats{
		Hits:   rz.hits.Load(),
		Misses: rz.misses.Load(),
		Errors: rz.errs.Load(),
	}
}

// Closed reports whether Close has run.
func (rz *Randomizer) Closed() bool { return rz.closed.Load() }

// Close stops the background workers and discards pooled values once the
// workers have exited, so a closed pool holds no memory and its Depth reads
// zero. Next keeps working afterwards by computing inline.
func (rz *Randomizer) Close() {
	rz.once.Do(func() {
		rz.closed.Store(true)
		close(rz.done)
		rz.workers.Add(1)
		go func() {
			defer rz.workers.Done()
			rz.fillers.Wait()
			for {
				select {
				case <-rz.ch:
				default:
					return
				}
			}
		}()
	})
}

// EncryptWith encrypts m drawing its randomizer from the pool.
func (pk *PublicKey) EncryptWith(rz *Randomizer, m *big.Int) (*Ciphertext, error) {
	em, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	rn, err := rz.Next()
	if err != nil {
		return nil, err
	}
	return pk.encryptWithRn(em, rn), nil
}
