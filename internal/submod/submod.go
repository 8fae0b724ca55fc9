// Package submod implements monotone submodular maximization under a
// cardinality constraint: the optimization core of VFPS-SM (§III-C of the
// paper). It provides the plain greedy algorithm with its 1−1/e guarantee,
// brute force for small ground sets as its test oracle, plus the
// facility-location objective f(S) = Σ_p max_{s∈S} w(p,s) that the paper
// proves normalized, monotone and submodular (Theorem 1).
package submod

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Objective is a set function over the ground set {0, …, N()−1}.
type Objective interface {
	// N is the size of the ground set.
	N() int
	// Value evaluates f(S) for the given member set. Implementations must
	// not retain or mutate the slice.
	Value(s []int) float64
}

// FacilityLocation is the KNN submodular function of the paper:
// f(S) = Σ_{p∈P} max_{s∈S} W[p][s], with f(∅) = 0.
type FacilityLocation struct {
	W [][]float64 // W[p][s] = w(p, s); square, size n×n
}

// NewFacilityLocation validates the similarity matrix and wraps it.
func NewFacilityLocation(w [][]float64) (*FacilityLocation, error) {
	n := len(w)
	if n == 0 {
		return nil, fmt.Errorf("submod: empty similarity matrix")
	}
	for i, row := range w {
		if len(row) != n {
			return nil, fmt.Errorf("submod: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("submod: invalid similarity W[%d][%d]=%g (must be finite and ≥ 0)", i, j, v)
			}
		}
	}
	return &FacilityLocation{W: w}, nil
}

// N returns the ground-set size.
func (f *FacilityLocation) N() int { return len(f.W) }

// Value computes f(S) = Σ_p max_{s∈S} W[p][s]; the empty set scores 0
// (normalization).
func (f *FacilityLocation) Value(s []int) float64 {
	if len(s) == 0 {
		return 0
	}
	var total float64
	for p := range f.W {
		best := math.Inf(-1)
		for _, v := range s {
			if w := f.W[p][v]; w > best {
				best = w
			}
		}
		total += best
	}
	return total
}

// Result reports a maximizer's outcome.
type Result struct {
	// Selected holds the chosen elements in selection order.
	Selected []int
	// Value is f(Selected).
	Value float64
	// Gains[i] is the marginal gain realised by the i-th selection.
	Gains []float64
	// Evaluations counts objective (or marginal-gain) evaluations, the unit
	// of selection cost.
	Evaluations int
}

func checkK(f Objective, k int) error {
	if k <= 0 {
		return fmt.Errorf("submod: k=%d must be positive", k)
	}
	if k > f.N() {
		return fmt.Errorf("submod: k=%d exceeds ground set size %d", k, f.N())
	}
	return nil
}

// Greedy runs the standard greedy algorithm (Algorithm 1 of the paper):
// starting from ∅, repeatedly add the element with maximum marginal gain,
// ties broken by smallest element id.
func Greedy(f Objective, k int) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	n := f.N()
	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	res := &Result{}
	cur := 0.0
	for len(selected) < k {
		bestV, bestGain := -1, math.Inf(-1)
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			val := f.Value(append(selected, v))
			res.Evaluations++
			if gain := val - cur; gain > bestGain {
				bestGain, bestV = gain, v
			}
		}
		selected = append(selected, bestV)
		inSet[bestV] = true
		cur += bestGain
		res.Gains = append(res.Gains, bestGain)
	}
	res.Selected = selected
	res.Value = cur
	return res, nil
}

// BruteForce finds the exact optimum over all size-k subsets; exponential,
// for tests and approximation-ratio measurements only.
func BruteForce(f Objective, k int) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	n := f.N()
	if n > 24 {
		return nil, fmt.Errorf("submod: brute force limited to n ≤ 24, got %d", n)
	}
	res := &Result{Value: math.Inf(-1)}
	subset := make([]int, 0, k)
	var recurse func(start int)
	recurse = func(start int) {
		if len(subset) == k {
			val := f.Value(subset)
			res.Evaluations++
			if val > res.Value {
				res.Value = val
				res.Selected = append(res.Selected[:0], subset...)
			}
			return
		}
		// Prune: not enough elements left to fill the subset.
		for v := start; v <= n-(k-len(subset)); v++ {
			subset = append(subset, v)
			recurse(v + 1)
			subset = subset[:len(subset)-1]
		}
	}
	recurse(0)
	return res, nil
}

// IsMonotone samples random chains A ⊆ B and checks f(A) ≤ f(B) up to a
// small tolerance. Used by property tests and by callers validating custom
// objectives.
func IsMonotone(f Objective, trials int, rng *rand.Rand) bool {
	n := f.N()
	for t := 0; t < trials; t++ {
		a, b := randomChain(n, rng)
		if f.Value(a) > f.Value(b)+1e-9 {
			return false
		}
	}
	return true
}

// IsSubmodular samples random A ⊆ B and v ∉ B and checks the diminishing
// returns inequality f(A∪{v})−f(A) ≥ f(B∪{v})−f(B) up to a small tolerance.
func IsSubmodular(f Objective, trials int, rng *rand.Rand) bool {
	n := f.N()
	if n < 2 {
		return true
	}
	for t := 0; t < trials; t++ {
		a, b := randomChain(n, rng)
		outside := elementsOutside(n, b)
		if len(outside) == 0 {
			continue
		}
		v := outside[rng.Intn(len(outside))]
		gainA := f.Value(append(append([]int{}, a...), v)) - f.Value(a)
		gainB := f.Value(append(append([]int{}, b...), v)) - f.Value(b)
		if gainA < gainB-1e-9 {
			return false
		}
	}
	return true
}

// randomChain returns random sets a ⊆ b ⊆ {0..n-1} with |b| < n.
func randomChain(n int, rng *rand.Rand) (a, b []int) {
	perm := rng.Perm(n)
	bSize := rng.Intn(n) // 0..n-1, leaving at least one element outside
	aSize := 0
	if bSize > 0 {
		aSize = rng.Intn(bSize + 1)
	}
	b = append([]int{}, perm[:bSize]...)
	a = append([]int{}, b[:aSize]...)
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

func elementsOutside(n int, set []int) []int {
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	var out []int
	for v := 0; v < n; v++ {
		if !in[v] {
			out = append(out, v)
		}
	}
	return out
}
