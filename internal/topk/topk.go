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
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Item pairs an instance id with its score on one party.
type Item struct {
	ID    int
	Score float64
}

// less is the order of every ranking in the system: ascending score, ties by
// id. Ids are distinct within a list, so the order is strict and total and a
// sorted list is unique.
func less(a, b Item) bool {
	return a.Score < b.Score || (a.Score == b.Score && a.ID < b.ID)
}

// Compare is less as a three-way comparison, for slices.SortFunc.
func Compare(a, b Item) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// SortPrefix reorders items so that items[:m] is exactly the first m items
// of the full Compare-sort, leaving the rest in unspecified order. It
// quick-selects the m smallest in O(len) and sorts only those, so the cost
// is O(len + m log m) instead of O(len log len).
func SortPrefix(items []Item, m int) {
	m = min(m, len(items))
	if m <= 0 {
		return
	}
	selectSmallest(items, m)
	slices.SortFunc(items[:m], Compare)
}

// selectSmallest partitions items so that items[:m] holds the m smallest in
// any order (0 < m ≤ len). Median-of-three quickselect; a run of bad pivots
// falls back to sorting what is left, which bounds the worst case at
// O(len log len).
func selectSmallest(items []Item, m int) {
	for budget := 2 * bits.Len(uint(len(items))); m < len(items); budget-- {
		if budget == 0 || len(items) <= 12 {
			slices.SortFunc(items, Compare)
			return
		}
		p := partition(items)
		if m <= p {
			items = items[:p]
		} else {
			items, m = items[p+1:], m-(p+1)
		}
	}
}

// partition picks the median of the first, middle and last item as pivot and
// returns its final index p: items[:p] sort before it, items[p+1:] after.
func partition(items []Item) int {
	last := len(items) - 1
	mid := last / 2
	if less(items[0], items[mid]) {
		items[0], items[mid] = items[mid], items[0]
	}
	if less(items[last], items[mid]) {
		items[last], items[mid] = items[mid], items[last]
	}
	if less(items[last], items[0]) {
		items[last], items[0] = items[0], items[last]
	}
	// items[mid] ≤ items[0] ≤ items[last]: the median leads.
	pivot := items[0]
	i, j := 1, last
	for {
		for i <= j && less(items[i], pivot) {
			i++
		}
		for i <= j && less(pivot, items[j]) {
			j--
		}
		if i >= j {
			break
		}
		items[i], items[j] = items[j], items[i]
		i++
		j--
	}
	items[0], items[j] = items[j], items[0]
	return j
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
	sums := make([]Item, len(cand))
	ra := 0
	for i, id := range cand {
		var s float64
		for _, l := range lists {
			s += l.Score(id)
			ra++
		}
		sums[i] = Item{ID: id, Score: s}
	}
	SortPrefix(sums, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = sums[i].ID
	}
	return out, ra
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
// as soon as k seen instances have aggregate ≤ τ.
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
		if len(best) >= k && best[k-1].sum <= tau {
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

// KSmallest returns the indices of the k smallest values in ascending value
// order (ties by index). It is the single-list special case used by the
// leader after decrypting complete distances.
func KSmallest(values []float64, k int) []int {
	if k > len(values) {
		k = len(values)
	}
	if k <= 0 {
		return nil
	}
	items := make([]Item, len(values))
	for i, v := range values {
		items[i] = Item{ID: i, Score: v}
	}
	SortPrefix(items, k)
	out := make([]int, k)
	for i := range out {
		out[i] = items[i].ID
	}
	return out
}
