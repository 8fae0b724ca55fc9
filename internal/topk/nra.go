package topk

import (
	"container/heap"
	"sort"
)

// NRA runs the No-Random-Access algorithm: sorted access only, maintaining
// per-object bounds, terminating once k fully-seen objects provably beat
// every other object's lower bound.
//
// For the minimal-k/sum setting the bounds are: a partially seen object's
// total is at least its seen scores plus the current frontier of each unseen
// list; a never-seen object's total is at least the frontier sum τ.
//
// NRA is included for completeness of the top-k substrate (it is the
// classic third member next to Fagin and TA). It does not map onto the
// *encrypted* VFL deployment: NRA needs the scores revealed during sorted
// access, whereas the paper's protocol deliberately streams only pseudo-ID
// rankings and keeps scores encrypted — which is exactly why VFPS-SM builds
// on Fagin's algorithm.
func NRA(lists []*RankedList, k int) (*Result, error) {
	n, err := validate(lists, k)
	if err != nil {
		return nil, err
	}
	p := len(lists)
	type state struct {
		seenMask uint64
		seenSum  float64
	}
	seen := make(map[int]*state, 4*k)
	order := make([]int, 0, 4*k)
	frontier := make([]float64, p)
	var stats Stats
	depth := 0
	// exact holds fully seen objects as a max-heap on total so the kth-best
	// exact total is cheap to track.
	exact := &maxHeap{}
	exactTotal := map[int]float64{}
	for depth < n {
		for li, l := range lists {
			it := l.At(depth)
			stats.SortedAccesses++
			frontier[li] = it.Score
			st, ok := seen[it.ID]
			if !ok {
				st = &state{}
				seen[it.ID] = st
				order = append(order, it.ID)
			}
			st.seenMask |= 1 << li
			st.seenSum += it.Score
			if st.seenMask == (uint64(1)<<p)-1 {
				exactTotal[it.ID] = st.seenSum
				heap.Push(exact, heapItem{id: it.ID, total: st.seenSum})
				if exact.Len() > k {
					heap.Pop(exact)
				}
			}
		}
		depth++
		stats.Rounds++
		if exact.Len() < k {
			continue
		}
		kth := (*exact)[0].total
		// τ bounds every never-seen object.
		var tau float64
		for _, f := range frontier {
			tau += f
		}
		if kth > tau {
			continue
		}
		// Check partially seen objects' lower bounds.
		ok := true
		for id, st := range seen {
			if st.seenMask == (uint64(1)<<p)-1 {
				continue
			}
			lb := st.seenSum
			for li := 0; li < p; li++ {
				if st.seenMask&(1<<li) == 0 {
					lb += frontier[li]
				}
			}
			if lb < kth {
				ok = false
				break
			}
			_ = id
		}
		if ok {
			break
		}
	}
	// Materialise the final top-k from the fully seen set (at full depth
	// every object is fully seen, so this always succeeds).
	finals := make([]Item, 0, len(exactTotal))
	for id, total := range exactTotal {
		finals = append(finals, Item{ID: id, Score: total})
	}
	SortPrefix(finals, k)
	topk := make([]int, k)
	for i := 0; i < k; i++ {
		topk[i] = finals[i].ID
	}
	cand := append([]int{}, order...)
	sort.Ints(cand)
	stats.Candidates = len(cand)
	stats.ScanDepth = depth
	return &Result{TopK: topk, CandidateIDs: cand, Stats: stats}, nil
}

type heapItem struct {
	id    int
	total float64
}

// maxHeap keeps the largest total on top so it can be evicted, leaving the
// k smallest exact totals.
type maxHeap []heapItem

func (h maxHeap) Len() int { return len(h) }
func (h maxHeap) Less(i, j int) bool {
	if h[i].total != h[j].total {
		return h[i].total > h[j].total
	}
	return h[i].id > h[j].id
}
func (h maxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *maxHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
