package he

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// SecAgg implements the secure-multiparty-computation alternative the paper
// sketches in §II: instead of encrypting partial distances, each participant
// blinds them with pairwise one-time masks that cancel exactly when all P
// participants' values for the same item are summed. The aggregation server
// therefore only ever sees uniformly random 64-bit words, yet obtains the
// true aggregate without any public-key operations.
//
// Values are carried as fixed-point int64 (scale 2^20) embedded in uint64
// arithmetic modulo 2^64, so mask cancellation is exact. Pairwise mask seeds
// derive from a consortium seed via SHA-256; a hardened deployment would
// agree them with pairwise Diffie–Hellman, which changes key setup but not
// this data path.
//
// Unlike HE ciphertexts, a mask is bound to the item being blinded, so
// encryption needs context: participants use EncryptAt with a domain tag and
// the (query, key) pair all parties agree on — the pseudo ID for candidate
// values (DomainItem) or the scan rank for TA frontiers (DomainRank).
type SecAgg struct {
	// Index is this participant's index, or -1 for non-contributing roles
	// (the leader and aggregation server only Add/Decrypt).
	Index int
	// Parties is the consortium size P.
	Parties int
	// Seed is the shared consortium masking seed.
	Seed int64
}

// Mask domains: masks for different protocol fields must never collide.
const (
	// DomainItem masks a partial distance keyed by pseudo ID.
	DomainItem byte = 1
	// DomainRank masks a TA frontier score keyed by scan rank.
	DomainRank byte = 2
)

// secAggScale is the fixed-point scale (2^20 ≈ 1e-6 resolution).
const secAggScale = 1 << 20

// ErrNeedsContext reports use of context-free Encrypt on the masking scheme.
var ErrNeedsContext = errors.New("he: secagg requires EncryptAt (mask is item-bound)")

// Contextual is implemented by schemes whose encryption depends on which
// protocol item is being protected. Participants prefer it when available.
type Contextual interface {
	EncryptAt(domain byte, query, key int, v float64) ([]byte, error)
}

// NewSecAgg returns the scheme for one participant.
func NewSecAgg(index, parties int, seed int64) (*SecAgg, error) {
	if parties < 2 {
		return nil, fmt.Errorf("he: secagg needs at least 2 parties, got %d", parties)
	}
	if index < -1 || index >= parties {
		return nil, fmt.Errorf("he: secagg index %d out of range", index)
	}
	return &SecAgg{Index: index, Parties: parties, Seed: seed}, nil
}

// WithIndex returns a copy bound to a participant index.
func (s *SecAgg) WithIndex(index int) (*SecAgg, error) {
	return NewSecAgg(index, s.Parties, s.Seed)
}

// Name implements Scheme.
func (s *SecAgg) Name() string { return "secagg" }

// pairMask derives the shared one-time pad between parties a < b for a
// specific protocol item.
func (s *SecAgg) pairMask(a, b int, domain byte, query, key int) uint64 {
	var buf [8 + 8 + 8 + 1 + 8 + 8]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(s.Seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(a))
	binary.BigEndian.PutUint64(buf[16:], uint64(b))
	buf[24] = domain
	binary.BigEndian.PutUint64(buf[25:], uint64(query))
	binary.BigEndian.PutUint64(buf[33:], uint64(key))
	h := sha256.Sum256(buf[:])
	return binary.BigEndian.Uint64(h[:8])
}

// maskFor is this participant's total mask for an item: it adds the pad it
// shares with every higher-indexed party and subtracts the pad shared with
// every lower-indexed party, so the sum over all parties is zero mod 2^64.
func (s *SecAgg) maskFor(domain byte, query, key int) uint64 {
	var total uint64
	for j := 0; j < s.Parties; j++ {
		if j == s.Index {
			continue
		}
		if s.Index < j {
			total += s.pairMask(s.Index, j, domain, query, key)
		} else {
			total -= s.pairMask(j, s.Index, domain, query, key)
		}
	}
	return total
}

func encodeFixed(v float64) (uint64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("he: cannot mask non-finite value %g", v)
	}
	scaled := v * secAggScale
	if math.Abs(scaled) >= math.MaxInt64/2 {
		return 0, fmt.Errorf("he: value %g overflows secagg fixed point", v)
	}
	return uint64(int64(math.Round(scaled))), nil
}

// EncryptAt blinds v with this participant's mask for the given item.
func (s *SecAgg) EncryptAt(domain byte, query, key int, v float64) ([]byte, error) {
	if s.Index < 0 {
		return nil, fmt.Errorf("he: secagg role without participant index cannot encrypt")
	}
	word, err := encodeFixed(v)
	if err != nil {
		return nil, err
	}
	word += s.maskFor(domain, query, key)
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, word)
	return out, nil
}

// Encrypt implements Scheme but always fails: masking is item-bound.
func (s *SecAgg) Encrypt(v float64) ([]byte, error) { return nil, ErrNeedsContext }

// Decrypt recovers the aggregate. It is only meaningful once all P
// participants' contributions for the item have been added (masks cancel);
// partial aggregates decode to uniformly random values.
func (s *SecAgg) Decrypt(c []byte) (float64, error) {
	if len(c) != 8 {
		return 0, fmt.Errorf("he: secagg ciphertext must be 8 bytes, got %d", len(c))
	}
	word := binary.BigEndian.Uint64(c)
	return float64(int64(word)) / secAggScale, nil
}

// Add implements Scheme: modular addition of masked words.
func (s *SecAgg) Add(a, b []byte) ([]byte, error) {
	if len(a) != 8 || len(b) != 8 {
		return nil, fmt.Errorf("he: secagg add needs 8-byte operands")
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, binary.BigEndian.Uint64(a)+binary.BigEndian.Uint64(b))
	return out, nil
}
