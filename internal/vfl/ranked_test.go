package vfl

import (
	"context"
	"math/rand"
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

// rankedTestParty builds a participant over tied data, computes one query's
// cache entry and returns it with the oracle ranking.
func rankedTestParty(t *testing.T, rng *rand.Rand, n int) (p *Participant, query int, qc *queryCache, want []topk.Item) {
	t.Helper()
	p, err := NewParticipant(0, tiedFeatures(rng, n), he.NewPlain(), rng.Int63(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	query = rng.Intn(n)
	qc, err = p.distances(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return p, query, qc, fullSortRanking(p, qc, query)
}

// TestLazyRankMatchesFullSort drives the lazy ranked list with random access
// scripts — Fagin's sequential batches, TA rank jumps, reads at and past the
// end, repeated reads — and requires every answer to be the full sort's.
func TestLazyRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5000)
		_, _, qc, want := rankedTestParty(t, rng, n)
		check := func(upto int) {
			t.Helper()
			got := qc.ranked(upto)
			if !slices.Equal(got, want[:min(upto, len(want))]) {
				t.Fatalf("trial %d (n=%d): ranked(%d) differs from the full sort's prefix", trial, n, upto)
			}
			if qc.sorted < len(got) || qc.sorted > len(want) {
				t.Fatalf("trial %d: sorted prefix %d outside [%d, %d]", trial, qc.sorted, len(got), len(want))
			}
		}
		depth := 0
		for step := 0; step < 40; step++ {
			switch rng.Intn(5) {
			case 0, 1: // the next mini-batch
				depth += 1 + rng.Intn(64)
				check(depth)
			case 2: // a TA frontier rank somewhere ahead
				check(depth + rng.Intn(n+1) + 1)
			case 3: // at or past the end
				check(len(want) + rng.Intn(3))
			case 4: // a read the prefix already covers
				check(rng.Intn(depth + 1))
			}
		}
		if n > 1 && qc.sorted == len(want) && !slices.Equal(qc.items, want) {
			t.Fatalf("trial %d: fully read list is not the full sort", trial)
		}
	}
}

// TestLazyRankStopsSorting pins the point of the change: a shallow scan of a
// long list leaves most of it unsorted.
func TestLazyRankStopsSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, _, qc, want := rankedTestParty(t, rng, 50_000)
	for depth := 32; depth <= 2112; depth += 32 {
		if !slices.Equal(qc.ranked(depth), want[:depth]) {
			t.Fatalf("ranked(%d) differs from the full sort's prefix", depth)
		}
	}
	if qc.sorted != 2*rankedMinGrowth {
		t.Fatalf("scan to depth 2112 sorted %d of %d items, want %d", qc.sorted, len(want), 2*rankedMinGrowth)
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
