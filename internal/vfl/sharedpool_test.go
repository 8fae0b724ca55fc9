package vfl

import (
	"context"
	"fmt"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/he"
)

func sharedPoolCluster(t *testing.T, pt *dataset.Partition, ps *he.PoolSet, parallelism int) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      "paillier",
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
		Options:     Options{Parallelism: parallelism, Pool: ps},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestSharedPoolSelectionIdentity is the cluster-lifetime pool contract: two
// clusters drawing randomizers from one shared PoolSet — at every Parallelism
// setting — produce the exact neighbour sets of a pool-less baseline.
// Randomizers only blind ciphertexts; where they come from must never leak
// into what the leader decides.
func TestSharedPoolSelectionIdentity(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	ctx := context.Background()
	queries := []int{0, 11, 29, 58}

	baseline := paillierCluster(t, pt)

	ps := he.NewPoolSet(32, 2)
	defer ps.Close()
	// Parallelism 1 is the serial determinism baseline; 0 is the default
	// worker-pool degree. The shared pool must attach (and stay harmless) at
	// both.
	a := sharedPoolCluster(t, pt, ps, 1)
	b := sharedPoolCluster(t, pt, ps, 0)

	// Both clusters generated distinct keys, so the set carries one pool per
	// modulus — attachment must actually have happened.
	if n := ps.Len(); n != 2 {
		t.Fatalf("PoolSet carries %d pools, want 2 (one per cluster key)", n)
	}

	for _, variant := range []Variant{VariantBase, VariantFagin, VariantThreshold} {
		t.Run(fmt.Sprint(variant), func(t *testing.T) {
			for _, q := range queries {
				want, err := baseline.Leader.RunQuery(ctx, q, 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				for name, cl := range map[string]*Cluster{"serial": a, "parallel": b} {
					got, err := cl.Leader.RunQuery(ctx, q, 3, variant)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if fmt.Sprint(want.Neighbors) != fmt.Sprint(got.Neighbors) {
						t.Fatalf("%s query %d: neighbours differ: %v vs %v",
							name, q, want.Neighbors, got.Neighbors)
					}
				}
			}
		})
	}

	// The rounds above must actually have drawn from the shared pools.
	if s := ps.Stats(); s.Hits == 0 {
		t.Fatalf("shared pools were never hit: %+v", s)
	}

	// Closing one sharer must leave the set's pools running for the other.
	a.Close()
	if _, err := b.Leader.RunQuery(ctx, queries[0], 3, VariantFagin); err != nil {
		t.Fatalf("cluster b after cluster a closed: %v", err)
	}
}
