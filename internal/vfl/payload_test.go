package vfl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/fixed"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/topk"
	"vfps/internal/wire"
)

func payloadTestCluster(t *testing.T, pt *dataset.Partition) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      "paillier",
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestAdaptivePackSelectionIdentity is the payload determinism contract: a
// Paillier consortium — adaptive slot width, cross-round delta cache —
// computes bit-identical similarities to static packing, across repeated
// rounds, while the second round actually hits the delta cache and moves
// fewer bytes. The static reference is a fresh cluster's first round, which
// packs under the static geometry throughout (TestPackWidthIsFixedPerRound).
func TestAdaptivePackSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 48, 3)
	queries := []int{0, 11, 47}

	full := payloadTestCluster(t, pt)
	// A fresh consortium's first round is static; settle the negotiated width
	// on the widest access pattern first, so every measured round runs at it.
	if _, err := full.Leader.Similarities(ctx, queries, 3, VariantBase); err != nil {
		t.Fatal(err)
	}

	for _, variant := range []Variant{VariantBase, VariantFagin} {
		sref, err := payloadTestCluster(t, pt).Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		var roundBytes [2]int64
		for round := 0; round < 2; round++ {
			rctx, cost := costmodel.WithCounts(ctx)
			frep, err := full.Leader.Similarities(rctx, queries, 3, variant)
			if err != nil {
				t.Fatalf("%s round %d: %v", variant, round+1, err)
			}
			for i := range sref.W {
				for j := range sref.W[i] {
					if sref.W[i][j] != frep.W[i][j] {
						t.Fatalf("%s round %d: W[%d][%d] = %v under payload knobs, %v static",
							variant, round+1, i, j, frep.W[i][j], sref.W[i][j])
					}
				}
			}
			total := cost.Snapshot()
			roundBytes[round] = total.BytesSent
			if round == 0 && total.CacheHits != 0 && variant == VariantBase {
				// First base round on a fresh cache: everything is a fresh send.
				t.Fatalf("%s round 1: %d cache hits on a cold cache", variant, total.CacheHits)
			}
			if round == 1 {
				if total.CacheHits == 0 {
					t.Fatalf("%s round 2: repeat queries recorded no delta-cache hits", variant)
				}
				if total.CacheMisses != 0 {
					t.Fatalf("%s round 2: %d unexpected delta-cache misses", variant, total.CacheMisses)
				}
			}
		}
		if roundBytes[1] >= roundBytes[0] {
			t.Fatalf("%s: steady-state round sent %d payload bytes, cold round %d — delta cache saved nothing",
				variant, roundBytes[1], roundBytes[0])
		}
	}
}

// TestMaliciousPackDepthRejected pins the leader's hard backstop against a
// peer advertising an impossible pack geometry: a non-positive aggregation
// depth or an oversized slot width must surface the typed fixed errors, and
// a pack factor inconsistent with the advertised geometry must be refused.
func TestMaliciousPackDepthRejected(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 24, 3)
	cl := payloadTestCluster(t, pt)

	col := &collected{
		pids:   []int{0, 1, 2},
		blobs:  [][]byte{{1}},
		factor: 3,
		bits:   40,
		adds:   0, // impossible: zero aggregation depth
	}
	if _, err := cl.Leader.decryptCollected(ctx, col); !errors.Is(err, fixed.ErrPackAdds) {
		t.Fatalf("zero advertised depth: err = %v, want fixed.ErrPackAdds", err)
	}

	col.adds = 3
	col.bits = 4096 // slot wider than any plaintext the key can hold
	if _, err := cl.Leader.decryptCollected(ctx, col); !errors.Is(err, fixed.ErrPackShape) {
		t.Fatalf("oversized slot width: err = %v, want fixed.ErrPackShape", err)
	}

	col.bits = 40
	col.factor = 1000 // geometry admits far fewer slots than advertised
	if _, err := cl.Leader.decryptCollected(ctx, col); err == nil ||
		!strings.Contains(err.Error(), "inconsistent packing configuration") {
		t.Fatalf("factor/geometry mismatch: err = %v, want inconsistent-packing rejection", err)
	}
}

// TestRankingBatchHostileCount pins the party's bounds handling against a
// hostile peer: Offset+Count must not overflow into a negative slice bound
// (a panic no transport recovers). Oversized counts and ranks clamp to the
// list, offsets past it and ranks into an empty list are refused.
func TestRankingBatchHostileCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, query, _, want := rankedTestParty(t, rng, 300)
	ctx := context.Background()
	call := func(p *Participant, method string, req, resp wire.Message) error {
		out, err := p.Handler()(ctx, method, enc(req))
		if err != nil {
			return err
		}
		return wire.Unmarshal(out, resp)
	}
	pids := func(items []topk.Item) []int {
		var out []int
		for _, it := range items {
			out = append(out, it.ID)
		}
		return out
	}

	for _, c := range []struct {
		offset, count int
		want          []int
	}{
		{1, math.MaxInt, pids(want[1:])},
		{len(want) - 1, math.MaxInt - 7, pids(want[len(want)-1:])},
		{len(want), math.MaxInt, nil},
		{0, 5, pids(want[:5])},
	} {
		var resp RankingBatchResp
		if err := call(p, MethodRankingBatch, &RankingBatchReq{Query: query, Offset: c.offset, Count: c.count}, &resp); err != nil {
			t.Fatalf("offset %d count %d: %v", c.offset, c.count, err)
		}
		if !slices.Equal(resp.PseudoIDs, c.want) {
			t.Fatalf("offset %d count %d: got %d ids, want %d", c.offset, c.count, len(resp.PseudoIDs), len(c.want))
		}
	}
	for _, r := range []RankingBatchReq{
		{Query: query, Offset: len(want) + 1, Count: 1},
		{Query: query, Offset: math.MaxInt, Count: math.MaxInt},
		{Query: query, Offset: -1, Count: 1},
		{Query: query, Offset: 0, Count: 0},
		{Query: query, Offset: 0, Count: math.MinInt},
	} {
		if err := call(p, MethodRankingBatch, &r, &RankingBatchResp{}); err == nil {
			t.Fatalf("offset %d count %d: accepted", r.Offset, r.Count)
		}
	}

	// The TA frontier takes the same clamp: an oversized rank reads the last
	// entry, a negative one is refused.
	var score EncryptRankScoreResp
	if err := call(p, MethodEncryptRankScore, &EncryptRankScoreReq{Query: query, Rank: math.MaxInt}, &score); err != nil {
		t.Fatal(err)
	}
	if v, err := he.NewPlain().Decrypt(score.Cipher); err != nil || v != want[len(want)-1].Score {
		t.Fatalf("rank MaxInt: got %v (%v), want the last entry's %v", v, err, want[len(want)-1].Score)
	}
	if err := call(p, MethodEncryptRankScore, &EncryptRankScoreReq{Query: query, Rank: -1}, &score); err == nil {
		t.Fatal("negative rank accepted")
	}
	// A one-row participant ranks nothing; its frontier must be an error, not
	// an index panic.
	lone, err := NewParticipant(0, mat.New(1, 2), he.NewPlain(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := call(lone, MethodEncryptRankScore, &EncryptRankScoreReq{Query: 0, Rank: 0}, &score); err == nil {
		t.Fatal("rank into an empty ranking accepted")
	}
	var batch RankingBatchResp
	if err := call(lone, MethodRankingBatch, &RankingBatchReq{Query: 0, Offset: 0, Count: math.MaxInt}, &batch); err != nil || len(batch.PseudoIDs) != 0 {
		t.Fatalf("one-row ranking batch: %v, %d ids", err, len(batch.PseudoIDs))
	}
}

// TestRankingBatchOverlongRejected is the caller side of the count contract:
// a party answering a ranking request with more ids than Count must not widen
// the scan. One hostile party returns its whole list for every batch; both
// scan drivers — the aggregation server's Fagin loop and the leader's
// threshold scan — refuse it with the typed error naming that party.
func TestRankingBatchOverlongRejected(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 40, 3)
	cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, ShuffleSeed: 7, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	hostile := PartyName(1)
	honest := cl.Parties[1].Handler()
	cl.Transport.Register(hostile, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if method == MethodRankingBatch {
			var r RankingBatchReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			r.Count = math.MaxInt // the party clamps this to its whole list
			req = enc(&r)
		}
		return honest(ctx, method, req)
	})
	for _, variant := range []Variant{VariantFagin, VariantThreshold} {
		_, err := runOne(ctx, cl.Leader, 0, 3, variant)
		if !errors.Is(err, errRankingOverrun) || !strings.Contains(err.Error(), hostile) {
			t.Fatalf("%s: err = %v, want errRankingOverrun naming %s", variant, err, hostile)
		}
	}
}
