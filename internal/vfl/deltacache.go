package vfl

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"vfps/internal/fixed"
	"vfps/internal/he"
	"vfps/internal/obs"
)

// Cross-round delta encoding: partial distances are a pure function of
// (query, pseudo-ID, party) over a static dataset, so when a monitoring
// workload re-runs the same queries, most of a party's ciphertext blocks are
// byte-identical to the previous round. On the party → aggregating-role link
// of a Paillier consortium, both ends keep a bounded cache of blocks keyed by
// that identity and by the slot layout that encoded it; the party withholds
// blocks the receiver is known to hold (empty placeholder + index list) and
// the receiver restores them locally. The scheme decides, not an option: the
// only saving is skipped encryptions, so the other schemes never cache.
// Paillier encryption is randomized, so a sender-side hit must reuse the
// cached ciphertext bytes — which also skips the re-encryption — rather than
// re-encrypt. The leader scopes reuse to the previous round: only a query
// that round also ran may be withheld, and every other query is collected
// with NoCache (Leader.beginRound).
//
// A receiver that evicted a block the sender assumed cached fails restore
// with ErrDeltaCacheMiss; the aggregating role retries once with NoCache set,
// which forces a full resend and refreshes both caches.

// ErrDeltaCacheMiss reports a withheld ciphertext block the receiver no
// longer holds. It is the typed trigger for the full-resend retry.
var ErrDeltaCacheMiss = errors.New("vfl: delta cache miss")

// deltaCacheBytes bounds each link's block cache by the ciphertext bytes it
// holds (FIFO eviction): 64 ciphertexts at 2048-bit keys, 512 at 256-bit
// ones. A block is one packed ciphertext, so that covers a few repeat queries
// of a small consortium without the resident set following the query count.
// The bound is per peer link, not per role: a receiver with many senders
// keys a separate cache per sender (deltaCachePool) so one link's traffic
// cannot evict another's blocks. A shared FIFO at capacity cascades — every
// full resend re-inserts its keys, evicting other senders' still-needed
// blocks, until no withheld block ever hits.
const deltaCacheBytes = 32 << 10

// deltaCache is a byte-bounded FIFO map from block identity to ciphertext
// bytes. The zero value is ready to use. Eviction advances a ring index into
// order instead of reslicing it: a reslice (`order = order[1:]`) would pin
// the evicted keys' backing array forever on a long-lived aggserver and grow
// the dead prefix without bound. The dead prefix is compacted away once it
// reaches half the slice, so the bookkeeping stays proportional to the live
// entries.
type deltaCache struct {
	mu    sync.Mutex
	m     map[string][]byte
	order []string
	head  int // index of the oldest live key in order; order[:head] is dead
	size  int // bytes of the live blobs
}

func (c *deltaCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	return b, ok
}

func (c *deltaCache) put(key string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string][]byte)
	}
	prev, ok := c.m[key]
	if ok && bytes.Equal(prev, blob) {
		// Byte-identical re-put (the common restore-refresh path): keep the
		// copy already owned by the cache.
		return
	}
	if !ok {
		c.order = append(c.order, key)
	}
	// Defensive copy: callers reuse encode buffers, and an aliased blob
	// mutated after the put would silently corrupt future hit comparisons.
	c.m[key] = append([]byte(nil), blob...)
	c.size += len(blob) - len(prev)
	// Evict the oldest blocks until the bound holds again; the newest block
	// stays even when it alone exceeds the bound.
	for c.size > deltaCacheBytes && len(c.order)-c.head > 1 {
		oldest := c.order[c.head]
		c.size -= len(c.m[oldest])
		delete(c.m, oldest)
		c.order[c.head] = "" // unpin the evicted key string
		c.head++
	}
	if c.head > 0 && c.head*2 >= len(c.order) {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

// deltaCachePool partitions delta caches per peer link: each sender a
// receiver talks to gets its own FIFO with its own deltaCacheBytes bound.
// Block keys already embed the peer, so the partition only changes capacity
// accounting, never key semantics. The zero value is ready to use.
type deltaCachePool struct {
	mu sync.Mutex
	m  map[string]*deltaCache
}

// forPeer returns the peer's cache, creating it on first use.
func (p *deltaCachePool) forPeer(peer string) *deltaCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string]*deltaCache)
	}
	c := p.m[peer]
	if c == nil {
		c = &deltaCache{}
		p.m[peer] = c
	}
	return c
}

// retain drops every per-peer cache whose peer is not in keep, releasing the
// departed links' ciphertext blocks (membership churn hygiene).
func (p *deltaCachePool) retain(keep []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		return
	}
	live := make(map[string]bool, len(keep))
	for _, peer := range keep {
		live[peer] = true
	}
	for peer := range p.m {
		if !live[peer] {
			delete(p.m, peer)
		}
	}
}

// idSig folds a pseudo-ID segment into an order-sensitive FNV-style
// signature, binding a cache key to the exact IDs a block covers. The two
// ends compute it over the same ID list, so keys agree by construction.
func idSig(pids []int) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range pids {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}

// slotLayout names how a vector's values were laid into its ciphertexts: the
// pack factor S and the slot width W and value bound V of the packer that
// packed them; W = V = 0 means one value per ciphertext.
type slotLayout struct {
	factor int
	w, v   uint
}

// layoutOf derives the slot layout of a vector packed factor-wide under the
// adaptive width bits (0 = the static geometry). The packer is the one
// encryptItems encodes with — PackerFor(bits, MaxPackAdds()) when bits > 0,
// Packer() otherwise — rebuilt from the scheme the caller holds, so sender
// and receiver derive the same layout with no wire field. W follows the
// roster's add headroom even when the factor and bits do not move, which is
// why a block key must name it.
func layoutOf(pp *he.Paillier, bits, factor int) (slotLayout, error) {
	factor = normFactor(factor)
	if factor == 1 {
		return slotLayout{factor: 1}, nil
	}
	packer, err := encodingPacker(pp, bits)
	if err != nil {
		return slotLayout{}, err
	}
	if packer == nil {
		return slotLayout{}, fmt.Errorf("vfl: %d-wide packed blocks, but this role's scheme has no packing geometry (ConfigurePacking with the roster size)", factor)
	}
	return slotLayout{factor: factor, w: packer.SlotBits(), v: packer.ValueBits()}, nil
}

// encodingPacker returns the packer a vector packed under the adaptive width
// bits is encoded with: the dictated geometry at the roster's add headroom
// when bits > 0, the static one otherwise.
func encodingPacker(pp *he.Paillier, bits int) (*fixed.Packer, error) {
	if bits > 0 {
		return pp.PackerFor(uint(bits), pp.MaxPackAdds())
	}
	return pp.Packer(), nil
}

// blockKeys derives the cache key of every block of a ciphertext vector:
// peer scopes the link (a receiver caches per sender), then the query, the
// slot layout (a renegotiated width or a resized headroom is a different
// block) and the covered pseudo-ID segment.
func blockKeys(peer string, query int, l slotLayout, pids []int) []string {
	blocks := packedLen(len(pids), l.factor)
	keys := make([]string, blocks)
	for b := 0; b < blocks; b++ {
		lo := b * l.factor
		hi := min(lo+l.factor, len(pids))
		keys[b] = fmt.Sprintf("%s|%d|%d|%d|%d|%d|%x", peer, query, l.factor, l.w, l.v, b, idSig(pids[lo:hi]))
	}
	return keys
}

// restore fills the withheld blocks of blobs (in place) from the cache and
// refreshes the cache with every block of the restored vector. cachedIdx must
// be strictly ascending, in range, and point at empty placeholders — anything
// else is a framing error. A withheld block absent from the cache returns
// ErrDeltaCacheMiss (typed, so the caller can retry with NoCache). Returns
// the hit count, which equals len(cachedIdx) on success.
func (c *deltaCache) restore(keys []string, blobs [][]byte, cachedIdx []int) (int, error) {
	if len(blobs) != len(keys) {
		return 0, fmt.Errorf("vfl: delta restore over %d blocks, want %d", len(blobs), len(keys))
	}
	if !sort.IntsAreSorted(cachedIdx) {
		return 0, fmt.Errorf("vfl: cached block indices not ascending")
	}
	for i, b := range cachedIdx {
		if b < 0 || b >= len(blobs) {
			return 0, fmt.Errorf("vfl: cached block index %d out of range [0,%d)", b, len(blobs))
		}
		if i > 0 && cachedIdx[i-1] == b {
			return 0, fmt.Errorf("vfl: duplicate cached block index %d", b)
		}
		if len(blobs[b]) != 0 {
			return 0, fmt.Errorf("vfl: cached block %d carries %d bytes, want empty placeholder", b, len(blobs[b]))
		}
		blob, ok := c.get(keys[b])
		if !ok {
			return 0, fmt.Errorf("%w: block %d of %d", ErrDeltaCacheMiss, b, len(blobs))
		}
		blobs[b] = blob
	}
	for b, key := range keys {
		c.put(key, blobs[b])
	}
	return len(cachedIdx), nil
}

// Delta-cache metric families: receiver-side lookup outcomes per role.
const (
	metricDeltaHits   = "vfps_delta_cache_hits_total"
	metricDeltaMisses = "vfps_delta_cache_misses_total"
)

func declareDelta(reg *obs.Registry) (hits, misses *obs.CounterVec) {
	hits = reg.Counter(metricDeltaHits,
		"Ciphertext blocks restored from the cross-round delta cache instead of the wire (receiver side).",
		"role")
	misses = reg.Counter(metricDeltaMisses,
		"Withheld ciphertext blocks the receiver no longer cached, each forcing a full-resend retry.",
		"role")
	return hits, misses
}

// DeclareDeltaMetrics pre-declares the delta-cache families on reg so they
// render on /metrics before the first delta transfer. Safe on a nil registry.
func DeclareDeltaMetrics(reg *obs.Registry) {
	declareDelta(reg)
}

// recordDelta feeds receiver-side lookup outcomes into the metric families.
// No-op without a registry.
func (r *roleObs) recordDelta(role string, hits, misses int) {
	if hits == 0 && misses == 0 {
		return
	}
	reg := r.o.Load().Registry()
	if reg == nil {
		return
	}
	h, m := declareDelta(reg)
	h.With(role).Add(int64(hits))
	m.With(role).Add(int64(misses))
}
