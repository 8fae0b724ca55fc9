// Package topk implements multi-party top-k query algorithms over ranked
// score lists: Fagin's algorithm (FA, used by VFPS-SM), the Threshold
// Algorithm (TA, supported as an alternative per §IV-B of the paper) and a
// naive full merge used as the correctness oracle and ablation baseline.
//
// Conventions match the paper's vertical-KNN use: every party holds a score
// (partial distance) for the same N instance ids, lists are sorted in
// ascending order, the aggregate is the sum across parties, and the query
// asks for the k instances with the *smallest* aggregate score ("minimal-k").
// Ties are broken by instance id so all algorithms return identical results.
package topk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Item pairs an instance id with its score on one party.
type Item struct {
	ID    int
	Score float64
}

// less is the order of every ranking in the system: ascending score, ties by
// id, and NaN scores after every number (NaNs by id). Ids are distinct within
// a list, so the order is strict and total and a sorted list is unique.
func less(a, b Item) bool {
	switch {
	case a.Score < b.Score:
		return true
	case a.Score == b.Score:
		return a.ID < b.ID
	case a.Score > b.Score:
		return false
	}
	aNaN, bNaN := a.Score != a.Score, b.Score != b.Score
	return !aNaN || bNaN && a.ID < b.ID
}

// Compare is less as a three-way comparison, for slices.SortFunc.
func Compare(a, b Item) int {
	switch {
	case a.Score < b.Score:
		return -1
	case a.Score > b.Score:
		return 1
	case a.Score == b.Score:
		return cmp.Compare(a.ID, b.ID)
	case less(a, b): // a NaN is involved
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// rankSample is the least number of strided sample points a Ranking pass
// reads its threshold off (up to twice as many on long lists).
const rankSample = 1024

// Ranking is the Compare order of the items {ID: IDs[i], Score: Scores[i]}
// (ID i when IDs is nil) over every index i but Skip, built as a sorted
// prefix that grows on demand. Sorted is exactly the first len(Sorted)
// entries of that order; Extend only ever appends to it, so slices of it
// stay valid.
//
// No N-entry item array exists. Each pass of Extend reads a threshold item
// off a strided sample of Scores, keeps the entries that order after the
// prefix tail and not after the threshold — exactly the next entries of the
// order, because it is strict — and sorts only those.
type Ranking struct {
	Scores []float64
	IDs    []int
	Skip   int // index left out of the order; -1 keeps every index
	Sorted []Item
	Passes int // passes over Scores so far
}

// Len is the number of entries in the full order.
func (r *Ranking) Len() int {
	if r.Skip >= 0 && r.Skip < len(r.Scores) {
		return len(r.Scores) - 1
	}
	return len(r.Scores)
}

func (r *Ranking) item(i int) Item {
	if r.IDs == nil {
		return Item{ID: i, Score: r.Scores[i]}
	}
	return Item{ID: r.IDs[i], Score: r.Scores[i]}
}

// Extend grows Sorted to at least min(upto, Len()) entries. A pass that
// falls short of the aim appends what it found and the next pass aims twice
// as far past the new tail, so a misleading sample costs O(log N) passes at
// worst; an aim that reaches the end of the order sorts all that is left in
// one pass.
func (r *Ranking) Extend(upto int) {
	upto = min(upto, r.Len())
	for try := 0; len(r.Sorted) < upto; try++ {
		r.pass(min((upto-len(r.Sorted))<<min(try, 32), r.Len()))
	}
}

// pass appends the entries that follow the prefix, up to a threshold chosen
// so that usually at least aim of them qualify, in order.
func (r *Ranking) pass(aim int) {
	r.Passes++
	start := len(r.Sorted)
	var tail Item
	lo, hi := math.Inf(-1), math.Inf(1)
	if start > 0 {
		tail, lo = r.Sorted[start-1], r.Sorted[start-1].Score
	}
	var bound Item
	bounded, rest := false, r.Len()-start
	if aim < rest {
		bound, bounded = r.threshold(aim, start > 0, tail)
	}
	if bounded {
		hi = bound.Score
		rest = min(rest, aim+aim/2) // what the threshold's margin lets through, about
	}
	r.Sorted = slices.Grow(r.Sorted, rest)
	for i, s := range r.Scores {
		// Only NaNs and scores inside [lo, hi] get past the float test; the
		// exact (score, id) test then settles ties at both ends.
		if s < lo || s > hi || i == r.Skip {
			continue
		}
		it := r.item(i)
		if start > 0 && !less(tail, it) || bounded && less(bound, it) {
			continue
		}
		r.Sorted = append(r.Sorted, it)
	}
	slices.SortFunc(r.Sorted[start:], Compare)
}

// threshold returns the sample item that about aim entries past the tail
// order at or before, with a quarter more plus three sample points of margin
// against sampling error. It reports false when the sample cannot bound the
// aim — it runs out past the tail, or the aim is a large share of the list —
// and the pass then takes everything after the tail.
func (r *Ranking) threshold(aim int, hasTail bool, tail Item) (Item, bool) {
	n := len(r.Scores)
	stride := max(1, n/rankSample)
	points := (n + stride - 1) / stride
	k := aim*points/n + aim*points/(4*n) + 3
	if k > points/2 {
		return Item{}, false
	}
	// best holds the k smallest sample items past the tail, ascending.
	best := make([]Item, 0, k)
	for i := 0; i < n; i += stride {
		if i == r.Skip {
			continue
		}
		it := r.item(i)
		if hasTail && !less(tail, it) || len(best) == k && !less(it, best[k-1]) {
			continue
		}
		j, _ := slices.BinarySearchFunc(best, it, Compare)
		if len(best) < k {
			best = append(best, Item{})
		}
		copy(best[j+1:], best[j:len(best)-1])
		best[j] = it
	}
	if len(best) < k {
		return Item{}, false
	}
	return best[k-1], true
}

// RankedList is one party's scores for instance ids 0..N-1, pre-sorted in
// ascending score order for sequential access, with random access by id.
type RankedList struct {
	sorted []Item    // ascending by (Score, ID)
	scores []float64 // indexed by id
}

// NewRankedList builds a ranked list from per-id scores (id = index).
func NewRankedList(scores []float64) *RankedList {
	l := &RankedList{
		sorted: make([]Item, len(scores)),
		scores: scores,
	}
	for id, s := range scores {
		l.sorted[id] = Item{ID: id, Score: s}
	}
	slices.SortFunc(l.sorted, Compare)
	return l
}

// Len returns the number of instances in the list.
func (l *RankedList) Len() int { return len(l.sorted) }

// At returns the item at the given rank (0 = smallest score).
func (l *RankedList) At(rank int) Item { return l.sorted[rank] }

// Score performs a random access: the score of the given id.
func (l *RankedList) Score(id int) float64 { return l.scores[id] }

// Ranking returns the instance ids in ascending score order. This is the
// "sub-ranking of pseudo IDs" a participant streams to the aggregation
// server.
func (l *RankedList) Ranking() []int {
	ids := make([]int, len(l.sorted))
	for i, it := range l.sorted {
		ids[i] = it.ID
	}
	return ids
}

// Stats records the work a top-k algorithm performed; the VFL cost model
// turns these into encrypted-communication counts.
type Stats struct {
	// SortedAccesses is the total number of sequential accesses across all
	// lists (paper: rows scanned until termination).
	SortedAccesses int
	// RandomAccesses is the number of by-id score look-ups.
	RandomAccesses int
	// Candidates is the number of distinct instances seen during scanning —
	// exactly the instances whose partial distances must be encrypted and
	// communicated in VFPS-SM.
	Candidates int
	// Rounds is the number of mini-batch rounds until termination.
	Rounds int
	// ScanDepth is the per-list number of rows scanned.
	ScanDepth int
}

// Result is the outcome of a top-k query.
type Result struct {
	// TopK holds the ids of the k smallest-aggregate instances in ascending
	// aggregate order (ties by id).
	TopK []int
	// CandidateIDs are the distinct instances examined (TopK ⊆ CandidateIDs).
	CandidateIDs []int
	Stats        Stats
}

func validate(lists []*RankedList, k int) (n int, err error) {
	if len(lists) == 0 {
		return 0, fmt.Errorf("topk: no lists")
	}
	n = lists[0].Len()
	for i, l := range lists {
		if l.Len() != n {
			return 0, fmt.Errorf("topk: list %d has %d items, want %d", i, l.Len(), n)
		}
	}
	if k <= 0 {
		return 0, fmt.Errorf("topk: k=%d must be positive", k)
	}
	if k > n {
		return 0, fmt.Errorf("topk: k=%d exceeds %d instances", k, n)
	}
	return n, nil
}

// kSmallestByAggregate aggregates candidates across lists and returns the k
// ids with smallest sums (ascending, ties by id), along with the number of
// random accesses charged.
func kSmallestByAggregate(lists []*RankedList, cand []int, k int) ([]int, int) {
	sums := make([]float64, len(cand))
	ra := 0
	for i, id := range cand {
		for _, l := range lists {
			sums[i] += l.Score(id)
			ra++
		}
	}
	top := KSmallest(sums, cand, k)
	ids := make([]int, len(top))
	for i, it := range top {
		ids[i] = it.ID
	}
	return ids, ra
}

// Fagin runs Fagin's algorithm with mini-batched sequential access: each
// round scans the next `batch` rows of every list in parallel (paper Step
// ①–②), stopping once at least k ids have been seen in *all* lists, then
// aggregates every seen id (Step ③) and returns the minimal-k.
func Fagin(lists []*RankedList, k, batch int) (*Result, error) {
	n, err := validate(lists, k)
	if err != nil {
		return nil, err
	}
	if batch <= 0 {
		return nil, fmt.Errorf("topk: batch=%d must be positive", batch)
	}
	p := len(lists)
	seenCount := make(map[int]int, 4*k)
	seenOrder := make([]int, 0, 4*k)
	fullySeen := 0
	depth := 0
	rounds := 0
	var stats Stats
	for fullySeen < k && depth < n {
		rounds++
		end := depth + batch
		if end > n {
			end = n
		}
		for _, l := range lists {
			for r := depth; r < end; r++ {
				id := l.At(r).ID
				stats.SortedAccesses++
				c := seenCount[id]
				if c == 0 {
					seenOrder = append(seenOrder, id)
				}
				seenCount[id] = c + 1
				if c+1 == p {
					fullySeen++
				}
			}
		}
		depth = end
	}
	cand := make([]int, len(seenOrder))
	copy(cand, seenOrder)
	sort.Ints(cand)
	topk, ra := kSmallestByAggregate(lists, cand, k)
	stats.RandomAccesses = ra
	stats.Candidates = len(cand)
	stats.Rounds = rounds
	stats.ScanDepth = depth
	return &Result{TopK: topk, CandidateIDs: cand, Stats: stats}, nil
}

// Threshold runs the Threshold Algorithm (TA): depth-synchronised sorted
// access with immediate random access for each newly seen id, maintaining
// the threshold τ (the aggregate of the current scan frontier) and stopping
// as soon as k seen instances have aggregate < τ. An unseen instance's
// aggregate is at least τ, and one equal to τ may order before a seen one on
// id, so a k-th aggregate equal to τ does not settle the top k.
func Threshold(lists []*RankedList, k int) (*Result, error) {
	n, err := validate(lists, k)
	if err != nil {
		return nil, err
	}
	type agg struct {
		id  int
		sum float64
	}
	seen := make(map[int]float64, 4*k)
	order := make([]int, 0, 4*k)
	var stats Stats
	best := make([]agg, 0, 4*k) // kept sorted ascending by (sum, id)
	insert := func(a agg) {
		i := sort.Search(len(best), func(i int) bool {
			if best[i].sum != a.sum {
				return best[i].sum > a.sum
			}
			return best[i].id > a.id
		})
		best = append(best, agg{})
		copy(best[i+1:], best[i:])
		best[i] = a
	}
	depth := 0
	for depth < n {
		var tau float64
		for _, l := range lists {
			it := l.At(depth)
			stats.SortedAccesses++
			tau += it.Score
			if _, ok := seen[it.ID]; !ok {
				var s float64
				for _, l2 := range lists {
					s += l2.Score(it.ID)
					stats.RandomAccesses++
				}
				seen[it.ID] = s
				order = append(order, it.ID)
				insert(agg{id: it.ID, sum: s})
			}
		}
		depth++
		stats.Rounds++
		if len(best) >= k && best[k-1].sum < tau {
			break
		}
	}
	cand := make([]int, len(order))
	copy(cand, order)
	sort.Ints(cand)
	topk := make([]int, k)
	for i := 0; i < k; i++ {
		topk[i] = best[i].id
	}
	stats.Candidates = len(cand)
	stats.ScanDepth = depth
	return &Result{TopK: topk, CandidateIDs: cand, Stats: stats}, nil
}

// Naive aggregates every instance across all lists and sorts — the
// correctness oracle and the access pattern of VFPS-SM-BASE, which must
// encrypt and transmit all N partial distances.
func Naive(lists []*RankedList, k int) (*Result, error) {
	n, err := validate(lists, k)
	if err != nil {
		return nil, err
	}
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	topk, ra := kSmallestByAggregate(lists, cand, k)
	return &Result{
		TopK:         topk,
		CandidateIDs: cand,
		Stats: Stats{
			SortedAccesses: 0,
			RandomAccesses: ra,
			Candidates:     n,
			Rounds:         1,
			ScanDepth:      n,
		},
	}, nil
}

// KSmallest returns the first k entries (fewer when the list is shorter) of
// the ranking of scores, id ids[i] for index i (i when ids is nil): ascending
// score, ties by id. The leader ranks decrypted candidate sums with it under
// their pseudo IDs, so a tie resolves the same whichever order the candidates
// arrived in.
func KSmallest(scores []float64, ids []int, k int) []Item {
	if k <= 0 {
		return nil
	}
	r := Ranking{Scores: scores, IDs: ids, Skip: -1}
	r.Extend(k)
	return r.Sorted[:min(k, len(r.Sorted))]
}
