package vfl

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/wire"
)

// peers reports the number of live per-peer caches.
func (p *deltaCachePool) peers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// len reports the live entry count.
func (c *deltaCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// footprint reports the live blob bytes and the bookkeeping slice's length
// and capacity: all three must stay bounded under sustained eviction
// pressure.
func (c *deltaCache) footprint() (size, length, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, len(c.order), cap(c.order)
}

// TestDeltaCacheEvictionPressure drives three caches' worth of distinct
// ciphertext-sized puts and asserts the cache's memory stays bounded: the
// live blobs never exceed deltaCacheBytes, and the FIFO bookkeeping slice
// (length and capacity) stays proportional to the live entries instead of
// accumulating an unbounded dead prefix, which the old reslice-based eviction
// (`order = order[1:]`) allowed.
func TestDeltaCacheEvictionPressure(t *testing.T) {
	const blobBytes = 64 // one ciphertext at a 256-bit key
	live := deltaCacheBytes / blobBytes
	var c deltaCache
	total := 3 * live
	blob := func(i int) []byte {
		b := make([]byte, blobBytes)
		b[0], b[1] = byte(i), byte(i>>8)
		return b
	}
	for i := 0; i < total; i++ {
		c.put(fmt.Sprintf("key-%d", i), blob(i))
	}
	if got := c.len(); got != live {
		t.Fatalf("live entries = %d, want %d", got, live)
	}
	size, length, capacity := c.footprint()
	if size > deltaCacheBytes {
		t.Fatalf("live blobs hold %d bytes, bound %d", size, deltaCacheBytes)
	}
	if length > 2*live {
		t.Fatalf("order length %d exceeds 2×live (%d): dead prefix not compacted", length, 2*live)
	}
	if capacity > 8*live {
		t.Fatalf("order capacity %d grew unboundedly (%d live)", capacity, live)
	}
	// FIFO semantics: the oldest keys are gone, the newest survive.
	if _, ok := c.get("key-0"); ok {
		t.Fatalf("oldest key survived %d puts over a %d-byte cache", total, deltaCacheBytes)
	}
	for i := total - live; i < total; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, ok := c.get(key)
		if !ok {
			t.Fatalf("recent %s missing", key)
		}
		if !bytes.Equal(got, blob(i)) {
			t.Fatalf("%s = %x, want %x", key, got, blob(i))
		}
	}
	// A re-put under a live key that changes the blob's size is charged by
	// its new size, and a blob larger than the bound alone stays as the one
	// newest entry.
	c.put(fmt.Sprintf("key-%d", total-1), make([]byte, 2*blobBytes))
	if size, _, _ := c.footprint(); size > deltaCacheBytes {
		t.Fatalf("resized re-put left %d bytes, bound %d", size, deltaCacheBytes)
	}
	c.put("huge", make([]byte, 2*deltaCacheBytes))
	if got := c.len(); got != 1 {
		t.Fatalf("an oversized block left %d entries, want 1", got)
	}
	if _, ok := c.get("huge"); !ok {
		t.Fatal("the newest block was evicted")
	}
}

// TestDeltaCachePoolIsolation pins the shared-FIFO regression that broke
// survivor reuse at 6+ parties: when every sender shared one receive cache,
// a roster whose combined blocks exceeded the bound evicted its own working
// set mid-round, every withheld block missed, and the full-resend retries
// cascaded more evictions — the delta path never hit again. The pool bounds
// each link independently, so flooding one peer far past the bound must
// leave every other peer's blocks restorable, and retain must release only
// departed links.
func TestDeltaCachePoolIsolation(t *testing.T) {
	const blobBytes = 64
	var p deltaCachePool
	p.forPeer("party/0").put("party/0|0|1|0|0|0|sig", []byte("survivor-block"))
	noisy := p.forPeer("party/1")
	for i := 0; i < 2*deltaCacheBytes/blobBytes; i++ {
		noisy.put(fmt.Sprintf("party/1|0|1|0|0|%d|sig", i), make([]byte, blobBytes))
	}
	if size, _, _ := noisy.footprint(); size > deltaCacheBytes {
		t.Fatalf("noisy link holds %d bytes, bound %d", size, deltaCacheBytes)
	}
	got, ok := p.forPeer("party/0").get("party/0|0|1|0|0|0|sig")
	if !ok || !bytes.Equal(got, []byte("survivor-block")) {
		t.Fatalf("quiet link's block evicted by another link's traffic (ok=%v, got %q)", ok, got)
	}
	if p.peers() != 2 {
		t.Fatalf("pool tracks %d peers, want 2", p.peers())
	}
	// Membership leave: the departed link's cache is released, survivors keep
	// theirs.
	p.retain([]string{"party/0"})
	if p.peers() != 1 {
		t.Fatalf("retain left %d peers, want 1", p.peers())
	}
	if _, ok := p.forPeer("party/0").get("party/0|0|1|0|0|0|sig"); !ok {
		t.Fatal("retained link lost its block")
	}
	if got := p.forPeer("party/1").len(); got != 0 {
		t.Fatalf("departed link still caches %d blocks after retain", got)
	}
}

// TestDeltaCacheDefensiveCopy pins the mutation-after-put regression: the
// cache must own its bytes, so a caller reusing its encode buffer after a put
// cannot corrupt future hit comparisons.
func TestDeltaCacheDefensiveCopy(t *testing.T) {
	var c deltaCache
	buf := []byte("ciphertext-block-v1")
	c.put("blk", buf)
	copy(buf, "XXXXXXXXXXXXXXXXXXX") // caller reuses its buffer
	got, ok := c.get("blk")
	if !ok {
		t.Fatal("block missing after put")
	}
	if !bytes.Equal(got, []byte("ciphertext-block-v1")) {
		t.Fatalf("cached bytes mutated through caller alias: %q", got)
	}
}

// TestDeltaKeyNamesTheSlotLayout pins the block key to the layout that
// encoded the block. A 4 → 5 join moves the slot width W (one more bit of
// add headroom) but, at this key size, neither the pack factor nor the
// dictated value bits; a survivor that reused its 4-party ciphertexts would
// hand the aggregator blocks laid out under the old W, which decrypt to
// wrong distances. So the first pull after the join must re-encrypt every
// block, and the next one must hit again under the new layout.
func TestDeltaKeyNamesTheSlotLayout(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 48, 5)
	cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: subset(pt, 4), Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	pp := cl.pubScheme.(*he.Paillier)
	const adaptiveBits = 50
	pull := func(packBits int) EncryptAllResp {
		t.Helper()
		raw, err := cl.Parties[0].Handler()(ctx, MethodEncryptAll, enc(&EncryptAllReq{Query: 3, PackBits: packBits}))
		if err != nil {
			t.Fatal(err)
		}
		var resp EncryptAllResp
		if err := wire.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	layouts := func() (out [2]slotLayout) {
		for i, bits := range []int{0, adaptiveBits} {
			l, err := layoutOf(pp, bits, 2)
			if err != nil {
				t.Fatal(err)
			}
			packer, err := encodingPacker(pp, bits)
			if err != nil {
				t.Fatal(err)
			}
			l.factor = packer.Slots()
			out[i] = l
		}
		return out
	}
	before := layouts()
	for _, bits := range []int{0, adaptiveBits} {
		pull(bits)
		if resp := pull(bits); len(resp.CachedBlocks) != len(resp.Ciphers) {
			t.Fatalf("bits=%d: a repeat pull at a fixed roster withheld %d of %d blocks, want all", bits, len(resp.CachedBlocks), len(resp.Ciphers))
		}
	}
	if _, err := cl.AddParticipant(pt.Parties[4]); err != nil {
		t.Fatal(err)
	}
	after := layouts()
	for i, bits := range []int{0, adaptiveBits} {
		if before[i].factor != after[i].factor || before[i].w == after[i].w {
			t.Fatalf("bits=%d: the join moved the layout %+v → %+v; the test needs W to move and the factor to hold", bits, before[i], after[i])
		}
		resp := pull(bits)
		if resp.PackBits != bits || resp.PackFactor != after[i].factor {
			t.Fatalf("bits=%d: pulled under (bits %d, factor %d), want (%d, %d)", bits, resp.PackBits, resp.PackFactor, bits, after[i].factor)
		}
		if len(resp.CachedBlocks) != 0 {
			t.Fatalf("bits=%d: the first pull after W moved %d → %d reused %d blocks packed under the old width", bits, before[i].w, after[i].w, len(resp.CachedBlocks))
		}
		if resp := pull(bits); len(resp.CachedBlocks) != len(resp.Ciphers) {
			t.Fatalf("bits=%d: a repeat pull under the new layout withheld %d of %d blocks, want all", bits, len(resp.CachedBlocks), len(resp.Ciphers))
		}
	}
}

// TestPlainSchemeNeverCaches pins the other half of the scheme rule: a
// non-Paillier link has nothing to save by skipping encryptions, so repeat
// rounds withhold nothing and charge no cache traffic.
func TestPlainSchemeNeverCaches(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 48, 3)
	cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, ShuffleSeed: 7, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for round := 0; round < 2; round++ {
		for _, variant := range []Variant{VariantBase, VariantFagin} {
			if _, err := cl.Leader.Similarities(ctx, []int{0, 11}, 3, variant); err != nil {
				t.Fatal(err)
			}
		}
	}
	if total := nodeCounts(cl); total.CacheHits != 0 || total.CacheMisses != 0 {
		t.Fatalf("plain repeat rounds charged %d cache hits, %d misses", total.CacheHits, total.CacheMisses)
	}
	if n := cl.Parties[0].deltaSent.len(); n != 0 {
		t.Fatalf("plain links cached %d blocks", n)
	}
}

// TestReuseIsADeltaAgainstThePreviousRound pins the round rule: a query's
// blocks are withheld only when the round before ran that query too. A
// query that recurs after an unrelated round is resent in full and
// re-encrypted even though its blocks are still cached, so a round's cost
// never depends on how long the consortium has run.
func TestReuseIsADeltaAgainstThePreviousRound(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 48, 3)
	cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	round := func(queries ...int) (hits, encryptions int64) {
		t.Helper()
		total := similaritiesCost(t, cl.Leader, queries, 3, VariantFagin)
		return total.CacheHits, total.Encryptions
	}
	// A fresh consortium's first round is static and the second packs at the
	// width the first taught the server, so the blocks the second sends are
	// the first the later rounds can reuse.
	round(0, 11)
	round(0, 11)
	hits, repeatEnc := round(0, 11)
	if hits == 0 {
		t.Fatal("a repeat of the previous round withheld nothing")
	}
	round(5)
	if hits, enc := round(0, 11); hits != 0 || enc <= repeatEnc {
		t.Fatalf("after an unrelated round: %d hits and %d encryptions, want 0 hits and more than a repeat's %d", hits, enc, repeatEnc)
	}
	if hits, _ := round(0, 11); hits == 0 {
		t.Fatal("the round after the resend withheld nothing: the resend did not warm the caches")
	}
}

// subset returns the partition of pt's first n parties.
func subset(pt *dataset.Partition, n int) *dataset.Partition {
	return &dataset.Partition{Parties: pt.Parties[:n], FeatureIdx: pt.FeatureIdx[:n], DuplicateOf: pt.DuplicateOf[:n]}
}
