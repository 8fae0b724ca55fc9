package he

import (
	"io"
	"sync"

	"vfps/internal/paillier"
)

// PoolSet is a cluster-lifetime registry of Paillier randomizer pools, keyed
// by public-key modulus. It exists so pools outlive any single protocol
// round or cluster: several consortiums (or successive Fagin rounds of one)
// sharing a key draw from one pool whose background workers keep producing
// through the idle gaps between rounds, instead of each round paying the
// table build and warm-up again.
//
// The set owns its pools: schemes attach via Paillier.AttachPool and must
// NOT close them; Close on the owning side tears everything down. A PoolSet
// is safe for concurrent use.
type PoolSet struct {
	mu      sync.Mutex
	buffer  int
	workers int
	window  int
	pools   map[string]*paillier.Randomizer
	closed  bool
}

// NewPoolSet returns an empty set whose pools are created on first use with
// the given buffer and worker count (<= 0 select the paillier defaults:
// buffer 64, one worker). Fixed-base comb tables are sized by DefaultWindow; see
// SetWindow.
func NewPoolSet(buffer, workers int) *PoolSet {
	return &PoolSet{buffer: buffer, workers: workers, pools: make(map[string]*paillier.Randomizer)}
}

// SetWindow pins the fixed-base window width used by pools created after the
// call: 0 keeps paillier.DefaultWindow, negative restores classic uniform
// sampling.
func (ps *PoolSet) SetWindow(w int) {
	ps.mu.Lock()
	ps.window = w
	ps.mu.Unlock()
}

// For returns the pool for pk, creating it on first use. sk optionally
// enables CRT-accelerated production — it is honoured only by the call that
// creates the pool (later callers share whatever strategy the pool was built
// with). A closed set returns nil, which callers treat as "no pool".
func (ps *PoolSet) For(pk *paillier.PublicKey, random io.Reader, sk *paillier.PrivateKey) *paillier.Randomizer {
	key := string(pk.N.Bytes())
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil
	}
	if rz := ps.pools[key]; rz != nil {
		return rz
	}
	rz := paillier.NewRandomizerOpts(pk, random, paillier.PoolOptions{
		Buffer:  ps.buffer,
		Workers: ps.workers,
		Window:  ps.window,
		Key:     sk,
	})
	ps.pools[key] = rz
	return rz
}

// Len reports how many distinct keys have pools.
func (ps *PoolSet) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.pools)
}

// Stats aggregates the hit/miss/error counters across every pool in the set.
func (ps *PoolSet) Stats() paillier.PoolStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var total paillier.PoolStats
	for _, rz := range ps.pools {
		s := rz.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Errors += s.Errors
	}
	return total
}

// Close stops every pool's background workers and empties their buffers.
// Attached schemes stay usable; encryption computes randomizers inline.
func (ps *PoolSet) Close() {
	ps.mu.Lock()
	pools := ps.pools
	ps.pools = make(map[string]*paillier.Randomizer)
	ps.closed = true
	ps.mu.Unlock()
	for _, rz := range pools {
		rz.Close()
	}
}

// Refiller is implemented by schemes whose encryption draws on a precomputed
// pool that benefits from between-round refill hints.
type Refiller interface {
	// RefillHint asynchronously tops the pool up by up to n values, bounded
	// by spare buffer capacity. It never blocks the caller.
	RefillHint(n int)
}

// Hint forwards a refill hint to schemes that support one; a protocol role
// calls it when it knows a round just drained the pool and an idle gap
// follows (the leader is off aggregating or decrypting).
func Hint(s Scheme, n int) {
	if r, ok := s.(Refiller); ok {
		r.RefillHint(n)
	}
}
