package vfl

import (
	"context"
	"testing"
)

func TestPlanSubtrees(t *testing.T) {
	cases := []struct {
		parties, workers, size, shards int
	}{
		{4, 2, 2, 2},
		{5, 2, 4, 2}, // ragged: shards of 4 and 1
		{8, 4, 2, 4},
		{3, 2, 2, 2}, // ragged: shards of 2 and 1
		{3, 8, 1, 3}, // more workers than parties: one party per shard
		{6, 1, 8, 1}, // single worker: sharding is moot
		{7, 3, 4, 2}, // ceil(7/3)=3 rounds up to subtree 4
		{16, 4, 4, 4},
	}
	for _, c := range cases {
		size, shards := PlanSubtrees(c.parties, c.workers)
		if size != c.size || shards != c.shards {
			t.Errorf("PlanSubtrees(%d, %d) = (%d, %d), want (%d, %d)",
				c.parties, c.workers, size, shards, c.size, c.shards)
		}
		if shards > 1 {
			plan := &ShardPlan{SubtreeSize: size}
			for i := 0; i < shards; i++ {
				plan.Workers = append(plan.Workers, AggWorkerName(i))
			}
			if err := plan.Validate(c.parties); err != nil {
				t.Errorf("plan for (%d, %d): %v", c.parties, c.workers, err)
			}
		}
	}
}

func TestShardPlanValidate(t *testing.T) {
	bad := []ShardPlan{
		{SubtreeSize: 3, Workers: []string{"a", "b"}}, // not a power of two
		{SubtreeSize: 2, Workers: []string{"a"}},      // wrong worker count for 4 parties
		{SubtreeSize: 2, Workers: []string{"a", "a"}}, // duplicate
		{SubtreeSize: 2, Workers: []string{"a", ""}},  // empty name
		{SubtreeSize: 0, Workers: nil},                // zero size
	}
	for i := range bad {
		if err := bad[i].Validate(4); err == nil {
			t.Errorf("plan %d validated unexpectedly: %+v", i, bad[i])
		}
	}
	good := ShardPlan{SubtreeSize: 2, Workers: []string{"a", "b"}}
	if err := good.Validate(4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// shardedSimilarities runs one full similarity estimation over a cluster
// built with the given config and returns the W matrix plus total counts.
func shardedSimilarities(t *testing.T, cfg ClusterConfig, queries []int, k, rounds int) ([][]float64, int64, int64) {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var rep *SimilarityReport
	for r := 0; r < rounds; r++ {
		rep, err = cl.Leader.Similarities(context.Background(), queries, k, VariantFagin)
		if err != nil {
			t.Fatal(err)
		}
	}
	total, err := cl.Leader.TotalCounts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep.W, total.CipherAdds, total.Encryptions
}

// TestShardedSelectionIdentity is the bit-identity property test of the
// shard refactor: the similarity matrix (and hence any selection derived
// from it) must match the unsharded baseline exactly — not approximately —
// for every worker count, including ragged final shards.
func TestShardedSelectionIdentity(t *testing.T) {
	for _, parties := range []int{3, 4, 5} {
		_, pt := testPartition(t, "Rice", 60, parties)
		queries := []int{0, 7, 21}
		base := ClusterConfig{Partition: pt, Scheme: "plain", ShuffleSeed: 7, Batch: 8}
		refW, refAdds, refEnc := shardedSimilarities(t, base, queries, 4, 1)
		for _, workers := range []int{1, 2, 3, 4} {
			cfg := base
			cfg.ShardWorkers = workers
			w, adds, enc := shardedSimilarities(t, cfg, queries, 4, 1)
			for i := range refW {
				for j := range refW[i] {
					if w[i][j] != refW[i][j] {
						t.Fatalf("p=%d workers=%d: W[%d][%d] = %v, unsharded %v",
							parties, workers, i, j, w[i][j], refW[i][j])
					}
				}
			}
			// The reduce moves across roles but performs the same additions
			// and the parties encrypt the same items.
			if adds != refAdds || enc != refEnc {
				t.Fatalf("p=%d workers=%d: counts (adds=%d, enc=%d), unsharded (%d, %d)",
					parties, workers, adds, enc, refAdds, refEnc)
			}
		}
	}
}

// TestShardedPaillierIdentity repeats the identity check on the real HE path
// (packed, width-negotiated, delta-cached) over two rounds, so the sharded
// NeedBits negotiation and cache interplay are exercised, not just plain
// arithmetic.
func TestShardedPaillierIdentity(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 5)
	queries := []int{0, 9}
	base := ClusterConfig{Partition: pt, Scheme: "paillier", KeyBits: 256,
		ShuffleSeed: 7, Batch: 8}
	refW, refAdds, refEnc := shardedSimilarities(t, base, queries, 3, 2)
	for _, workers := range []int{2, 3} {
		cfg := base
		cfg.ShardWorkers = workers
		w, adds, enc := shardedSimilarities(t, cfg, queries, 3, 2)
		for i := range refW {
			for j := range refW[i] {
				if w[i][j] != refW[i][j] {
					t.Fatalf("workers=%d: W[%d][%d] = %v, unsharded %v",
						workers, i, j, w[i][j], refW[i][j])
				}
			}
		}
		if adds != refAdds || enc != refEnc {
			t.Fatalf("workers=%d: counts (adds=%d, enc=%d), unsharded (%d, %d)",
				workers, adds, enc, refAdds, refEnc)
		}
	}
}

// TestShardWorkerFailureFallback kills one shard worker's transport and
// checks that the coordinator re-collects that shard directly from its
// parties, still producing the exact unsharded result.
func TestShardWorkerFailureFallback(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 4)
	queries := []int{0, 7}
	refW, _, _ := shardedSimilarities(t, ClusterConfig{Partition: pt, Scheme: "plain",
		ShuffleSeed: 7, Batch: 8}, queries, 4, 1)

	cl, err := NewLocalCluster(context.Background(), ClusterConfig{Partition: pt,
		Scheme: "plain", ShuffleSeed: 7, Batch: 8, Options: Options{ShardWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if len(cl.Workers) != 2 {
		t.Fatalf("expected 2 shard workers, got %d", len(cl.Workers))
	}
	cl.Transport.InjectFailure(AggWorkerName(1))
	rep, err := cl.Leader.Similarities(context.Background(), queries, 4, VariantFagin)
	if err != nil {
		t.Fatalf("selection did not survive a worker failure: %v", err)
	}
	for i := range refW {
		for j := range refW[i] {
			if rep.W[i][j] != refW[i][j] {
				t.Fatalf("failover W[%d][%d] = %v, unsharded %v", i, j, rep.W[i][j], refW[i][j])
			}
		}
	}
}

// TestShardedBaseVariantIdentity covers the BASE (collectAll) access pattern,
// whose pseudo-ID alignment check crosses shard roots on the coordinator.
func TestShardedBaseVariantIdentity(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 3)
	queries := []int{0, 5}
	ref, err := NewLocalCluster(context.Background(), ClusterConfig{Partition: pt,
		Scheme: "plain", ShuffleSeed: 7, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sh, err := NewLocalCluster(context.Background(), ClusterConfig{Partition: pt,
		Scheme: "plain", ShuffleSeed: 7, Batch: 8, Options: Options{ShardWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, q := range queries {
		want, err := ref.Leader.RunQuery(context.Background(), q, 4, VariantBase)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Leader.RunQuery(context.Background(), q, 4, VariantBase)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Neighbors) != len(got.Neighbors) {
			t.Fatalf("q=%d: %d neighbors sharded, want %d", q, len(got.Neighbors), len(want.Neighbors))
		}
		for i := range want.Neighbors {
			if want.Neighbors[i] != got.Neighbors[i] {
				t.Fatalf("q=%d neighbor %d: %d != %d", q, i, got.Neighbors[i], want.Neighbors[i])
			}
		}
	}
}
