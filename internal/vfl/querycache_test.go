package vfl

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/mat"
)

// finishPartyQuery drives one query through party p the way a Fagin query does:
// a ranking batch, then the neighbour sum that ends it.
func finishPartyQuery(t *testing.T, p *Participant, query int) {
	t.Helper()
	ctx := context.Background()
	if _, err := p.rankingBatch(ctx, RankingBatchReq{Query: query, Count: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.neighborSum(ctx, NeighborSumReq{Query: query, PseudoIDs: []int{p.perm[(query+1)%p.N()]}}); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborSumRetiresTheEntry pins the entry lifecycle: a finished query
// leaves nothing in the cache, its slab serves the next query, and that
// query's distances are exactly a fresh vector's, its own slot 0.
func TestNeighborSumRetiresTheEntry(t *testing.T) {
	_, pt := testPartition(t, "Rice", 200, 2)
	p := newCluster(t, pt, "plain").Parties[0]
	ctx := context.Background()
	finishPartyQuery(t, p, 3)
	p.mu.Lock()
	entries, free := len(p.cache), len(p.slabs)
	p.mu.Unlock()
	if entries != 0 || free != 1 {
		t.Fatalf("after a finished query the cache holds %d entries and %d free slabs, want 0 and 1", entries, free)
	}
	slab := &p.slabs[0][0]
	qc, err := p.distances(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release(qc, false)
	if &qc.dist[0] != slab {
		t.Fatal("the next query allocated a new slab instead of reusing the free one")
	}
	for i := range qc.dist {
		want := mat.SqDist(p.x.Row(50), p.x.Row(i))
		if i == 50 {
			want = 0
		}
		if qc.dist[i] != want {
			t.Fatalf("reused slab: dist[%d] = %v, want %v", i, qc.dist[i], want)
		}
	}
}

// TestRetiredSlabWaitsForItsLastHandler holds a query's entry as an
// in-flight handler would while another handler's NeighborSum retires it and
// further queries run to the end, each wanting a slab. The held distances
// must stay intact, and the slab must be handed out only after the release.
func TestRetiredSlabWaitsForItsLastHandler(t *testing.T) {
	_, pt := testPartition(t, "Rice", 200, 2)
	p := newCluster(t, pt, "plain").Parties[0]
	ctx := context.Background()
	held, err := p.distances(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(held.dist)
	finishPartyQuery(t, p, 3)
	for q := 10; q < 10+2*cacheMinEntries; q++ {
		finishPartyQuery(t, p, q)
	}
	if !slices.Equal(held.dist, want) {
		t.Fatal("a retired entry's slab was handed out while a handler still held the entry")
	}
	slab := &held.dist[0]
	p.release(held, false)
	qc, err := p.distances(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release(qc, false)
	if &qc.dist[0] != slab {
		t.Fatal("the released slab was not reused")
	}
}

// TestConcurrentSelectionsShareQueryRows runs selections of every variant
// concurrently on one cluster over the same query rows, so one selection's
// NeighborSum retires entries another selection's handlers are still
// reading, and requires each run to report exactly what the variant reports
// alone. Under -race a slab handed out before its last handler released it
// is also a reported race.
func TestConcurrentSelectionsShareQueryRows(t *testing.T) {
	_, pt := testPartition(t, "Rice", 600, 3)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{3, 5, 7, 9, 11, 13}
	variants := []Variant{VariantBase, VariantFagin, VariantThreshold}
	want := map[Variant]*SimilarityReport{}
	for _, v := range variants {
		rep, err := cl.Leader.Similarities(ctx, queries, 5, v)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = rep
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(v Variant) {
			defer wg.Done()
			for range 4 {
				got, err := cl.Leader.Similarities(ctx, queries, 5, v)
				if err == nil && !reflect.DeepEqual(got, want[v]) {
					err = fmt.Errorf("%s: concurrent report %+v, alone %+v", v, got, want[v])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(variants[g%len(variants)])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVariantsAgreeOnTiedData runs BASE, Fagin and TA over small
// integer-valued features, where many rows share the k-th complete distance,
// across 2 to 8 parties and k from 1 to 20, and requires the three to
// return the same neighbours in the same order with the same party sums.
func TestVariantsAgreeOnTiedData(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 28; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		parties := 2 + trial%7
		n := 60 + rng.Intn(60)
		x := mat.New(n, parties+rng.Intn(6))
		for i := range x.Data {
			x.Data[i] = float64(rng.Intn(3))
		}
		pt, err := dataset.VerticalSplit(&dataset.Dataset{X: x, Y: make([]int, n), Classes: 2}, parties, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: "plain",
			ShuffleSeed: rng.Int63(), Batch: 1 + rng.Intn(8)})
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(20)
		for _, q := range rng.Perm(n)[:3] {
			base, err := runOne(ctx, cl.Leader, q, k, VariantBase)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []Variant{VariantFagin, VariantThreshold} {
				res, err := runOne(ctx, cl.Leader, q, k, v)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Neighbors, base.Neighbors) || !slices.Equal(res.PartySums, base.PartySums) {
					t.Errorf("P=%d k=%d query %d: %s neighbours %v (sums %v), BASE %v (sums %v)",
						parties, k, q, v, res.Neighbors, res.PartySums, base.Neighbors, base.PartySums)
				}
			}
		}
		cl.Close()
	}
}
