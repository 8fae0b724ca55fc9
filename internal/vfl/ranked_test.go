package vfl

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/topk"
)

// fullSortRanking is the reference ranking: every row but the query, fully
// sorted by (distance, pseudo id) with the reflective sort. It is the oracle
// the lazy accessor must reproduce entry for entry.
func fullSortRanking(p *Participant, qc *queryCache, query int) []topk.Item {
	ranking := make([]int, 0, p.N()-1)
	for i := 0; i < p.N(); i++ {
		if i != query {
			ranking = append(ranking, i)
		}
	}
	sort.Slice(ranking, func(a, b int) bool {
		i, j := ranking[a], ranking[b]
		if qc.dist[i] != qc.dist[j] {
			return qc.dist[i] < qc.dist[j]
		}
		return p.perm[i] < p.perm[j]
	})
	out := make([]topk.Item, len(ranking))
	for r, orig := range ranking {
		out[r] = topk.Item{ID: p.perm[orig], Score: qc.dist[orig]}
	}
	return out
}

// tiedFeatures draws n rows whose distances tie heavily: binary
// Phishing-style columns, real-valued columns, or a few distinct rows
// duplicated throughout.
func tiedFeatures(rng *rand.Rand, n int) *mat.Matrix {
	cols := 1 + rng.Intn(6)
	x := mat.New(n, cols)
	mode := rng.Intn(3)
	distinct := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		src := i
		if mode == 2 && i >= distinct {
			src = rng.Intn(distinct)
		}
		for j := 0; j < cols; j++ {
			switch {
			case src != i:
				x.Set(i, j, x.At(src, j))
			case mode == 0:
				x.Set(i, j, float64(rng.Intn(2)))
			default:
				x.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return x
}

// sampleMissingFeatures draws n rows whose distances to row query put a
// dense cluster of near-zero distances on rows the ranking's strided sample
// (every max(1, n/1024)-th row) never reads, and spread-out distances on the
// rows it does, so the sample overestimates where the prefix ends.
func sampleMissingFeatures(rng *rand.Rand, n, query int) *mat.Matrix {
	x := mat.New(n, 2)
	stride := max(1, n/1024)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 10+rng.Float64())
		x.Set(i, 1, rng.NormFloat64())
		if i%stride != 0 && rng.Intn(3) == 0 {
			x.Set(i, 0, 1e-6*rng.Float64())
			x.Set(i, 1, 0)
		}
	}
	x.Set(query, 0, 0)
	x.Set(query, 1, 0)
	return x
}

// equalFeatures is n copies of one row: every distance is 0, so the ranking
// is the pseudo-id order alone.
func equalFeatures(n int) *mat.Matrix {
	x := mat.New(n, 3)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1.5)
	}
	return x
}

// rankedTestParty builds a participant over tied data, computes one query's
// cache entry and returns it with the oracle ranking.
func rankedTestParty(t *testing.T, rng *rand.Rand, n int) (p *Participant, query int, qc *queryCache, want []topk.Item) {
	t.Helper()
	return rankedTestPartyOver(t, rng, tiedFeatures(rng, n), rng.Intn(n))
}

// rankedTestPartyOver is rankedTestParty over the given rows and query.
func rankedTestPartyOver(t *testing.T, rng *rand.Rand, x *mat.Matrix, query int) (p *Participant, _ int, qc *queryCache, want []topk.Item) {
	t.Helper()
	p, err := NewParticipant(0, x, he.NewPlain(), rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	qc, err = p.distances(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return p, query, qc, fullSortRanking(p, qc, query)
}

// TestLazyRankMatchesFullSort drives the lazy ranked list with random access
// scripts — Fagin's sequential batches, TA rank jumps, reads at and past the
// end, repeated reads — and requires every answer to be the full sort's. The
// data cycles through shapes that defeat the ranking's sample: heavy ties,
// all distances equal, a dense cluster between the sample points, N smaller
// than the sample, and the query at row 0 or row N−1.
func TestLazyRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5000)
		var qc *queryCache
		var want []topk.Item
		switch trial % 5 {
		case 0:
			_, _, qc, want = rankedTestParty(t, rng, n)
		case 1:
			_, _, qc, want = rankedTestPartyOver(t, rng, equalFeatures(n), rng.Intn(n))
		case 2:
			n += 3000
			query := rng.Intn(n)
			_, _, qc, want = rankedTestPartyOver(t, rng, sampleMissingFeatures(rng, n, query), query)
		case 3:
			n = 1 + rng.Intn(1000)
			_, _, qc, want = rankedTestParty(t, rng, n)
		case 4:
			query := []int{0, n - 1}[rng.Intn(2)]
			_, _, qc, want = rankedTestPartyOver(t, rng, tiedFeatures(rng, n), query)
		}
		check := func(upto int) {
			t.Helper()
			got := qc.ranked(upto)
			if !slices.Equal(got, want[:min(upto, len(want))]) {
				t.Fatalf("trial %d (n=%d): ranked(%d) differs from the full sort's prefix", trial, n, upto)
			}
			if sorted := len(qc.rank.Sorted); sorted < len(got) || sorted > len(want) {
				t.Fatalf("trial %d: sorted prefix %d outside [%d, %d]", trial, sorted, len(got), len(want))
			}
		}
		depth := 0
		for step := 0; step < 40; step++ {
			switch rng.Intn(6) {
			case 0, 1: // the next mini-batch
				depth += 1 + rng.Intn(64)
				check(depth)
			case 2: // a TA frontier rank somewhere ahead
				check(depth + rng.Intn(n+1) + 1)
			case 3: // at or past the end
				check(len(want) + rng.Intn(3))
			case 4: // a read the prefix already covers
				check(rng.Intn(depth + 1))
			case 5: // a TA rank jump past the end of the list
				check(depth + n + 1 + rng.Intn(n+1))
			}
		}
		if n > 1 && len(qc.rank.Sorted) == len(want) && !slices.Equal(qc.rank.Sorted, want) {
			t.Fatalf("trial %d: fully read list is not the full sort", trial)
		}
	}
}

// TestLazyRankStopsSorting pins the point of the lazy ranking: a shallow
// scan of a long list makes at most two passes over the distances and
// allocates far less than the 16 B per row an item array of the whole list
// would.
func TestLazyRankStopsSorting(t *testing.T) {
	const n = 50_000
	rng := rand.New(rand.NewSource(5))
	_, _, qc, want := rankedTestParty(t, rng, n)
	scan := func() {
		for depth := 32; depth <= 2112; depth += 32 {
			if !slices.Equal(qc.ranked(depth), want[:depth]) {
				t.Fatalf("ranked(%d) differs from the full sort's prefix", depth)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scan()
	runtime.ReadMemStats(&after)
	if qc.rank.Passes > 2 {
		t.Fatalf("scan to depth 2112 made %d passes over the distances, want ≤ 2", qc.rank.Passes)
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 16*n/4 {
		t.Fatalf("scan to depth 2112 allocated %d B, want far less than 16·N = %d B", allocated, 16*n)
	}
}

// TestLazyRankConcurrent reads one queryCache from eight goroutines at mixed
// depths; every read must be the full sort's prefix, and the race detector
// must stay quiet (readers hold slices of the sorted prefix while another
// goroutine extends it).
func TestLazyRankConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	_, _, qc, want := rankedTestParty(t, rng, 20_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := qc.ranked(1 + rng.Intn(64))
			for step := 0; step < 200; step++ {
				upto := rng.Intn(len(want) + 2)
				if step%4 != 0 {
					upto = rng.Intn(1 + 64*step)
				}
				if !slices.Equal(qc.ranked(upto), want[:min(upto, len(want))]) {
					t.Errorf("ranked(%d) differs from the full sort's prefix", upto)
					return
				}
				if !slices.Equal(held, want[:len(held)]) {
					t.Errorf("a held prefix changed under a later extension")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
