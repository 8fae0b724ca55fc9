// Package costmodel accounts the primitive operations the VFL protocol
// performs and projects them onto wall-clock time at paper scale.
//
// The paper's cost analysis (§IV-A) prices a selection run in terms of
// β (computing a partial distance), φe/φd (encrypting/decrypting one item),
// γ (adding two encrypted items), δ (adding two plaintext items) and
// η (transmitting one item). This package counts exactly those quantities
// during protocol runs; a Model maps counts to projected seconds so that the
// experiment harness can report paper-shaped running times even when the
// local run uses scaled-down data or the simulated Plain scheme.
package costmodel

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Counts accumulates primitive-operation counts. The zero value is ready to
// use; methods are safe for concurrent use.
type Counts struct {
	mu sync.Mutex
	c  Raw
}

// Raw is a plain-value snapshot of operation counts.
type Raw struct {
	// DistanceFlops counts feature-level multiply-adds spent computing
	// partial distances (β is charged per feature element).
	DistanceFlops int64
	// Encryptions (φe) and Decryptions (φd) count HE item operations.
	Encryptions int64
	Decryptions int64
	// CipherAdds (γ) counts homomorphic additions.
	CipherAdds int64
	// PlainAdds (δ) counts plaintext additions performed by the protocol
	// (ranking merges, neighbour sums).
	PlainAdds int64
	// ItemsSent (η) counts transmitted data items (ids, scalars or
	// ciphertexts) and Messages counts protocol round trips.
	ItemsSent int64
	Messages  int64
	// BytesSent tracks the payload share of transmitted traffic: the value
	// content a message fundamentally has to move — ciphertext and key
	// blobs, 8 bytes per float scalar — as actually encoded on the wire.
	BytesSent int64
	// FramingBytes tracks the wire overhead around that payload: envelopes,
	// field tags, length prefixes and pseudo-ID lists. BytesSent+FramingBytes
	// is the full encoded volume.
	FramingBytes int64
	// CacheHits and CacheMisses count cross-round delta-cache lookups on the
	// receiving side of a ciphertext transfer: a hit is a block restored from
	// cache instead of the wire, a miss forces a full resend.
	CacheHits   int64
	CacheMisses int64
}

// WireBytes returns the full encoded traffic volume, payload plus framing —
// the quantity BytesSent alone used to approximate.
func (r Raw) WireBytes() int64 { return r.BytesSent + r.FramingBytes }

// Add atomically accumulates a snapshot into the counter.
func (c *Counts) Add(r Raw) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.DistanceFlops += r.DistanceFlops
	c.c.Encryptions += r.Encryptions
	c.c.Decryptions += r.Decryptions
	c.c.CipherAdds += r.CipherAdds
	c.c.PlainAdds += r.PlainAdds
	c.c.ItemsSent += r.ItemsSent
	c.c.Messages += r.Messages
	c.c.BytesSent += r.BytesSent
	c.c.FramingBytes += r.FramingBytes
	c.c.CacheHits += r.CacheHits
	c.c.CacheMisses += r.CacheMisses
}

// Snapshot returns the current totals.
func (c *Counts) Snapshot() Raw {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// countsKey keys the accumulator a context carries.
type countsKey struct{}

// WithCounts returns a child of ctx carrying a fresh accumulator, and the
// accumulator. Charge adds to the innermost one, so a selection sums what its
// own calls cost and a handler sums what serving one call cost, however many
// of either run at once.
func WithCounts(ctx context.Context) (context.Context, *Counts) {
	c := new(Counts)
	return context.WithValue(ctx, countsKey{}, c), c
}

// Charge adds r to the accumulator ctx carries; without one it is a no-op.
func Charge(ctx context.Context, r Raw) {
	if c, ok := ctx.Value(countsKey{}).(*Counts); ok {
		c.Add(r)
	}
}

// Attrs flattens the counts into the key/value form the structured query log
// records (obs.QueryEvent.Attrs): HE-op counts plus the payload/framing byte
// split, with the combined wire total precomputed for gate scripts.
func (r Raw) Attrs() map[string]any {
	return map[string]any{
		"distanceFlops": r.DistanceFlops,
		"encryptions":   r.Encryptions,
		"decryptions":   r.Decryptions,
		"cipherAdds":    r.CipherAdds,
		"plainAdds":     r.PlainAdds,
		"itemsSent":     r.ItemsSent,
		"messages":      r.Messages,
		"bytesSent":     r.BytesSent,
		"framingBytes":  r.FramingBytes,
		"wireBytes":     r.WireBytes(),
		"cacheHits":     r.CacheHits,
		"cacheMisses":   r.CacheMisses,
	}
}

// String formats the counts compactly.
func (r Raw) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flops=%d enc=%d dec=%d cadd=%d padd=%d items=%d msgs=%d bytes=%d framing=%d",
		r.DistanceFlops, r.Encryptions, r.Decryptions, r.CipherAdds, r.PlainAdds,
		r.ItemsSent, r.Messages, r.BytesSent, r.FramingBytes)
	if r.CacheHits != 0 || r.CacheMisses != 0 {
		fmt.Fprintf(&b, " cacheHits=%d cacheMisses=%d", r.CacheHits, r.CacheMisses)
	}
	return b.String()
}

// Model prices operation counts in seconds per unit.
type Model struct {
	Beta    float64 // per distance flop
	PhiE    float64 // per encryption
	PhiD    float64 // per decryption
	Gamma   float64 // per ciphertext addition
	Delta   float64 // per plaintext addition
	Eta     float64 // per transmitted item
	Latency float64 // per protocol message (round-trip setup)
}

// Default is calibrated against this repository's Paillier implementation at
// a 1024-bit modulus (BenchmarkEncrypt/Decrypt/AddCipher in
// internal/paillier) and a LAN-like link comparable to the paper's EC2
// cluster: encryption ≈ 2 ms, decryption ≈ 0.7 ms, ciphertext addition
// ≈ 6 µs, ~1 µs per transmitted item plus 0.3 ms per message round trip.
var Default = Model{
	Beta:    1e-9,
	PhiE:    2.0e-3,
	PhiD:    0.7e-3,
	Gamma:   6e-6,
	Delta:   2e-9,
	Eta:     1e-6,
	Latency: 3e-4,
}

// Seconds projects a count snapshot to wall-clock seconds under the model.
func (m Model) Seconds(r Raw) float64 {
	return m.Beta*float64(r.DistanceFlops) +
		m.PhiE*float64(r.Encryptions) +
		m.PhiD*float64(r.Decryptions) +
		m.Gamma*float64(r.CipherAdds) +
		m.Delta*float64(r.PlainAdds) +
		m.Eta*float64(r.ItemsSent) +
		m.Latency*float64(r.Messages)
}
