package topk

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randomLists(rng *rand.Rand, p, n int) []*RankedList {
	lists := make([]*RankedList, p)
	for i := range lists {
		scores := make([]float64, n)
		for j := range scores {
			scores[j] = rng.Float64() * 100
		}
		lists[i] = NewRankedList(scores)
	}
	return lists
}

func TestRankedListSortedAscending(t *testing.T) {
	l := NewRankedList([]float64{5, 1, 3, 1})
	want := []int{1, 3, 2, 0} // ties by id: ids 1 and 3 share score 1
	if got := l.Ranking(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Ranking() = %v, want %v", got, want)
	}
	if l.Score(2) != 3 {
		t.Fatal("random access wrong")
	}
	if l.At(0).ID != 1 || l.At(0).Score != 1 {
		t.Fatal("At(0) wrong")
	}
}

func TestNaiveKnownAnswer(t *testing.T) {
	// Example from Fig. 2 shape: 3 parties, minimal-2.
	lists := []*RankedList{
		NewRankedList([]float64{1, 4, 2, 9}),
		NewRankedList([]float64{2, 8, 3, 7}),
		NewRankedList([]float64{1, 5, 6, 8}),
	}
	// Sums: X0=4, X1=17, X2=11, X3=24 -> minimal-2 = {0, 2}
	r, err := Naive(lists, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.TopK, []int{0, 2}) {
		t.Fatalf("Naive TopK = %v", r.TopK)
	}
}

func TestFaginMatchesNaiveKnownAnswer(t *testing.T) {
	lists := []*RankedList{
		NewRankedList([]float64{1, 4, 2, 9}),
		NewRankedList([]float64{2, 8, 3, 7}),
		NewRankedList([]float64{1, 5, 6, 8}),
	}
	f, err := Fagin(lists, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.TopK, []int{0, 2}) {
		t.Fatalf("Fagin TopK = %v", f.TopK)
	}
	if f.Stats.Candidates >= 4 {
		t.Logf("note: Fagin saw all candidates on this tiny input (%d)", f.Stats.Candidates)
	}
}

func TestThresholdMatchesNaiveKnownAnswer(t *testing.T) {
	lists := []*RankedList{
		NewRankedList([]float64{1, 4, 2, 9}),
		NewRankedList([]float64{2, 8, 3, 7}),
		NewRankedList([]float64{1, 5, 6, 8}),
	}
	r, err := Threshold(lists, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.TopK, []int{0, 2}) {
		t.Fatalf("Threshold TopK = %v", r.TopK)
	}
}

func TestValidation(t *testing.T) {
	lists := randomLists(rand.New(rand.NewSource(1)), 2, 10)
	if _, err := Fagin(nil, 2, 1); err == nil {
		t.Fatal("expected error for no lists")
	}
	if _, err := Fagin(lists, 0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Fagin(lists, 11, 1); err == nil {
		t.Fatal("expected error for k>n")
	}
	if _, err := Fagin(lists, 2, 0); err == nil {
		t.Fatal("expected error for batch=0")
	}
	ragged := []*RankedList{NewRankedList([]float64{1}), NewRankedList([]float64{1, 2})}
	if _, err := Naive(ragged, 1); err == nil {
		t.Fatal("expected error for ragged lists")
	}
	if _, err := Threshold(lists, 0); err == nil {
		t.Fatal("expected error for TA k=0")
	}
}

// Property: Fagin result == Naive result on random inputs, for various
// batch sizes.
func TestFaginEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		n := 5 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		batch := 1 + rng.Intn(10)
		lists := randomLists(rng, p, n)
		want, err := Naive(lists, k)
		if err != nil {
			return false
		}
		got, err := Fagin(lists, k, batch)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.TopK, want.TopK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TA result == Naive result on random inputs.
func TestThresholdEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		n := 5 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		lists := randomLists(rng, p, n)
		want, err := Naive(lists, k)
		if err != nil {
			return false
		}
		got, err := Threshold(lists, k)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.TopK, want.TopK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fagin and TA match Naive when aggregates tie heavily: small
// integer scores, so many instances share the k-th aggregate and the id
// tie-break decides which of them are in the top k.
func TestTiedScoresEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(4)
		n := 5 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		lists := make([]*RankedList, p)
		for i := range lists {
			scores := make([]float64, n)
			for j := range scores {
				scores[j] = float64(rng.Intn(3))
			}
			lists[i] = NewRankedList(scores)
		}
		want, err := Naive(lists, k)
		if err != nil {
			return false
		}
		fa, err := Fagin(lists, k, 1+rng.Intn(10))
		if err != nil {
			return false
		}
		ta, err := Threshold(lists, k)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(fa.TopK, want.TopK) && reflect.DeepEqual(ta.TopK, want.TopK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with duplicated (perfectly correlated) lists Fagin terminates at
// depth k — the candidate set is as small as possible.
func TestFaginCorrelatedListsPruneHard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	lists := []*RankedList{NewRankedList(scores), NewRankedList(scores), NewRankedList(scores)}
	r, err := Fagin(lists, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.ScanDepth != 10 {
		t.Fatalf("expected scan depth 10 on identical lists, got %d", r.Stats.ScanDepth)
	}
	if r.Stats.Candidates != 10 {
		t.Fatalf("expected 10 candidates, got %d", r.Stats.Candidates)
	}
}

// On anti-correlated lists Fagin must scan deep; its candidate count should
// approach n, never exceed it.
func TestFaginAntiCorrelated(t *testing.T) {
	n := 200
	asc := make([]float64, n)
	desc := make([]float64, n)
	for i := 0; i < n; i++ {
		asc[i] = float64(i)
		desc[i] = float64(n - i)
	}
	lists := []*RankedList{NewRankedList(asc), NewRankedList(desc)}
	r, err := Fagin(lists, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Candidates > n {
		t.Fatalf("candidates %d exceed n", r.Stats.Candidates)
	}
	want, _ := Naive(lists, 5)
	if !reflect.DeepEqual(r.TopK, want.TopK) {
		t.Fatalf("anti-correlated mismatch: %v vs %v", r.TopK, want.TopK)
	}
}

func TestFaginCandidatesContainTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lists := randomLists(rng, 4, 300)
	r, err := Fagin(lists, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	cand := make(map[int]bool, len(r.CandidateIDs))
	for _, id := range r.CandidateIDs {
		cand[id] = true
	}
	for _, id := range r.TopK {
		if !cand[id] {
			t.Fatalf("top-k id %d missing from candidates", id)
		}
	}
}

func TestFaginBatchInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lists := randomLists(rng, 3, 500)
	var prev []int
	for _, b := range []int{1, 7, 32, 500} {
		r, err := Fagin(lists, 20, b)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, r.TopK) {
			t.Fatalf("batch %d changed result", b)
		}
		prev = r.TopK
	}
}

func TestKSmallest(t *testing.T) {
	v := []float64{5, 1, 3, 1, 4}
	got := KSmallest(v, nil, 3)
	want := []Item{{1, 1}, {3, 1}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KSmallest = %v, want %v", got, want)
	}
	// Ties break by the given ids, not by position.
	got = KSmallest(v, []int{50, 40, 30, 20, 10}, 2)
	if want := []Item{{20, 1}, {40, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("KSmallest with ids = %v, want %v", got, want)
	}
	if KSmallest(v, nil, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	if len(KSmallest(v, nil, 99)) != 5 {
		t.Fatal("k>n should clamp")
	}
}

// fullSort is the oracle every lazy ranking must reproduce: all items but
// skip's, sorted with the reflective sort under (score, id), NaNs last.
func fullSort(scores []float64, ids []int, skip int) []Item {
	var items []Item
	for i, s := range scores {
		if i != skip {
			items = append(items, Item{ID: ids[i], Score: s})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if math.IsNaN(a.Score) || math.IsNaN(b.Score) {
			return !math.IsNaN(a.Score) || math.IsNaN(b.Score) && a.ID < b.ID
		}
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.ID < b.ID
	})
	return items
}

// rankingScores draws n scores from one of the shapes that can mislead the
// strided sample: few distinct levels, all equal, a dense cluster the sample
// points miss, the sample points alone holding the smallest scores, sorted
// and reversed inputs, and a sprinkle of NaNs and infinities.
func rankingScores(rng *rand.Rand, n, shape int) []float64 {
	scores := make([]float64, n)
	stride := max(1, n/rankSample)
	levels := 1 + rng.Intn(8)
	for i := range scores {
		switch shape {
		case 0:
			scores[i] = rng.NormFloat64()
		case 1:
			scores[i] = float64(rng.Intn(levels))
		case 2:
			scores[i] = 3
		case 3: // a dense cluster between the sample points
			scores[i] = 10 + rng.Float64()
			if i%stride != 0 && rng.Intn(4) == 0 {
				scores[i] = rng.Float64() * 1e-9
			}
		case 4: // only the sample points are small
			scores[i] = 10 + rng.Float64()
			if i%stride == 0 {
				scores[i] = rng.Float64()
			}
		case 5:
			scores[i] = float64(i)
		case 6:
			scores[i] = float64(n - i)
		case 7:
			scores[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1}[rng.Intn(6)]
		}
	}
	return scores
}

// TestRankingMatchesFullSort drives Ranking.Extend with random access
// scripts over every score shape, with and without an id mapping and a
// skipped index, and requires every prefix to be the full sort's.
func TestRankingMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(6000)
		scores := rankingScores(rng, n, trial%8)
		ids := rng.Perm(n)
		skip := -1
		if n > 0 && trial%3 != 0 {
			skip = []int{0, n - 1, rng.Intn(n)}[trial%3]
		}
		r := Ranking{Scores: scores, IDs: ids, Skip: skip}
		if trial%4 == 0 { // the identity id mapping
			r.IDs = nil
			ids = make([]int, n)
			for i := range ids {
				ids[i] = i
			}
		}
		want := fullSort(scores, ids, skip)
		if r.Len() != len(want) {
			t.Fatalf("trial %d: Len() = %d, want %d", trial, r.Len(), len(want))
		}
		for upto := 0; len(r.Sorted) < len(want); {
			upto += 1 + rng.Intn(1+n/4)
			r.Extend(upto)
			if len(r.Sorted) < min(upto, len(want)) || !sameItems(r.Sorted, want[:len(r.Sorted)]) {
				t.Fatalf("trial %d (n=%d shape %d skip %d): Extend(%d) left %d entries that differ from the full sort's",
					trial, n, trial%8, skip, upto, len(r.Sorted))
			}
		}
		r.Extend(n + 5) // past the end: a no-op
		if !sameItems(r.Sorted, want) {
			t.Fatalf("trial %d: the fully extended ranking is not the full sort", trial)
		}
	}
}

// sameItems compares item lists bit for bit, so NaN scores compare equal
// and -0 differs from +0.
func sameItems(a, b []Item) bool {
	return slices.EqualFunc(a, b, func(x, y Item) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// TestRankingPassBound pins the cost of a shallow read of a long list: one
// pass that sorts little more than it was asked for on well-spread or tied
// scores, and no more than a logarithmic number of passes on a sample that
// points the threshold the wrong way (which then sorts what is left).
func TestRankingPassBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		shape, maxPasses int
	}{{0, 1}, {1, 1}, {2, 1}, {4, 12}} {
		r := Ranking{Scores: rankingScores(rng, 100_000, c.shape), Skip: -1}
		r.Extend(2048)
		if r.Passes > c.maxPasses {
			t.Errorf("shape %d: Extend(2048) of 100 000 took %d passes, want ≤ %d", c.shape, r.Passes, c.maxPasses)
		}
		if len(r.Sorted) > 2*2048 && c.shape != 4 {
			t.Errorf("shape %d: Extend(2048) sorted %d entries", c.shape, len(r.Sorted))
		}
	}
}

// FuzzRankedPrefix checks Ranking against the full sort on arbitrary score
// vectors and read scripts.
func FuzzRankedPrefix(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 7, 7, 7}, uint16(3), uint8(0))
	f.Add(bytes.Repeat([]byte{9}, 3000), uint16(2999), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, skip uint16, script uint8) {
		scores := make([]float64, len(raw))
		for i, b := range raw {
			scores[i] = []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1)}[b%3]
			if b >= 3 {
				scores[i] = float64(b>>2) - 20
			}
		}
		ids := make([]int, len(scores))
		for i := range ids {
			ids[i] = (i * 7919) % max(1, len(ids)) // a bijection whenever len is not a multiple of 7919
			if len(ids)%7919 == 0 {
				ids[i] = i
			}
		}
		r := Ranking{Scores: scores, IDs: ids, Skip: int(skip) - 1}
		want := fullSort(scores, ids, r.Skip)
		for step := 1; len(r.Sorted) < len(want); step++ {
			r.Extend(len(r.Sorted) + 1 + int(script)*step)
			if !sameItems(r.Sorted, want[:len(r.Sorted)]) {
				t.Fatalf("prefix of %d differs from the full sort's", len(r.Sorted))
			}
		}
	})
}

// Statistics sanity: TA should never do more sorted accesses than Fagin with
// batch 1 needs rounds×p... both bounded by n×p.
func TestStatsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p, n := 4, 400
	lists := randomLists(rng, p, n)
	fr, _ := Fagin(lists, 10, 5)
	tr, _ := Threshold(lists, 10)
	nr, _ := Naive(lists, 10)
	if fr.Stats.SortedAccesses > p*n || tr.Stats.SortedAccesses > p*n {
		t.Fatal("sorted accesses exceed total rows")
	}
	if nr.Stats.RandomAccesses != p*n {
		t.Fatalf("naive should touch every cell: %d", nr.Stats.RandomAccesses)
	}
	if fr.Stats.Candidates == 0 || tr.Stats.Candidates == 0 {
		t.Fatal("candidate counts missing")
	}
}

func BenchmarkFagin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fagin(lists, 10, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Threshold(lists, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Naive(lists, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankingExtend is one party's first read of a 100 000-row
// ranking: a pass over the distances to the 2 048-row growth floor.
func BenchmarkRankingExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 100_000
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.ExpFloat64()
	}
	ids := rng.Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Ranking{Scores: scores, IDs: ids, Skip: 17}
		r.Extend(2048)
	}
}
