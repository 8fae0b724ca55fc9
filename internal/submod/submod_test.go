package submod

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSimilarity(rng *rand.Rand, n int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		w[i][i] = 1
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

func fl(t testing.TB, w [][]float64) *FacilityLocation {
	f, err := NewFacilityLocation(w)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFacilityLocationValidation(t *testing.T) {
	if _, err := NewFacilityLocation(nil); err == nil {
		t.Fatal("expected error for empty matrix")
	}
	if _, err := NewFacilityLocation([][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	if _, err := NewFacilityLocation([][]float64{{1, -0.5}, {0.5, 1}}); err == nil {
		t.Fatal("expected error for negative similarity")
	}
	if _, err := NewFacilityLocation([][]float64{{1, math.NaN()}, {0.5, 1}}); err == nil {
		t.Fatal("expected error for NaN similarity")
	}
	if _, err := NewFacilityLocation([][]float64{{1, math.Inf(1)}, {0.5, 1}}); err == nil {
		t.Fatal("expected error for +Inf similarity")
	}
}

func TestValueNormalized(t *testing.T) {
	f := fl(t, randomSimilarity(rand.New(rand.NewSource(1)), 5))
	if f.Value(nil) != 0 {
		t.Fatal("f(∅) must be 0")
	}
}

func TestValueKnown(t *testing.T) {
	w := [][]float64{
		{1.0, 0.2, 0.3},
		{0.2, 1.0, 0.8},
		{0.3, 0.8, 1.0},
	}
	f := fl(t, w)
	// f({1}) = 0.2 + 1.0 + 0.8 = 2.0
	if got := f.Value([]int{1}); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("f({1}) = %g", got)
	}
	// f({0,1}) = max(1,.2)+max(.2,1)+max(.3,.8) = 1+1+0.8 = 2.8
	if got := f.Value([]int{0, 1}); math.Abs(got-2.8) > 1e-12 {
		t.Fatalf("f({0,1}) = %g", got)
	}
}

// The paper's Fig. 1 story: bank (0) and credit (1) are near-duplicates,
// e-commerce (2) is diverse. Greedy must pick one of {bank, credit} plus
// e-commerce, never bank+credit, even though individually bank and credit
// score highest.
func TestGreedyPrefersDiversity(t *testing.T) {
	w := [][]float64{
		{1.00, 0.95, 0.30},
		{0.95, 1.00, 0.30},
		{0.30, 0.30, 1.00},
	}
	f := fl(t, w)
	res, err := Greedy(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, v := range res.Selected {
		got[v] = true
	}
	if !got[2] {
		t.Fatalf("diverse participant 2 not selected: %v", res.Selected)
	}
	if got[0] && got[1] {
		t.Fatalf("redundant pair selected: %v", res.Selected)
	}
}

func TestGreedyValidation(t *testing.T) {
	f := fl(t, randomSimilarity(rand.New(rand.NewSource(2)), 4))
	if _, err := Greedy(f, 0); err == nil {
		t.Fatal("expected error k=0")
	}
	if _, err := Greedy(f, 5); err == nil {
		t.Fatal("expected error k>n")
	}
}

func TestGreedyGainsDiminish(t *testing.T) {
	f := fl(t, randomSimilarity(rand.New(rand.NewSource(3)), 12))
	res, err := Greedy(f, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Gains); i++ {
		if res.Gains[i] > res.Gains[i-1]+1e-9 {
			t.Fatalf("gains must diminish: %v", res.Gains)
		}
	}
	if math.Abs(res.Value-f.Value(res.Selected)) > 1e-9 {
		t.Fatal("accumulated value mismatch")
	}
}

func TestLazyGreedyMatchesGreedy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		k := 1 + rng.Intn(n)
		f := fl(t, randomSimilarity(rng, n))
		g, err := Greedy(f, k)
		if err != nil {
			t.Fatal(err)
		}
		l, err := LazyGreedy(f, k)
		if err != nil {
			t.Fatal(err)
		}
		// Under exact arithmetic lazy greedy selects the same set; floating-
		// point ties can swap elements with equal gains, so the contract is
		// value equivalence.
		if math.Abs(g.Value-l.Value) > 1e-9 {
			t.Fatalf("seed %d: value mismatch %g vs %g (greedy %v, lazy %v)",
				seed, g.Value, l.Value, g.Selected, l.Selected)
		}
		// Lazy greedy never does more than one refresh per element per round,
		// so it is bounded by greedy's cost plus the initial pass; in practice
		// it does far fewer evaluations for larger k.
		if l.Evaluations > g.Evaluations+f.N() {
			t.Fatalf("seed %d: lazy used too many evaluations (%d vs greedy %d)", seed, l.Evaluations, g.Evaluations)
		}
	}
}

func TestGreedyApproximationGuarantee(t *testing.T) {
	// Greedy must achieve ≥ (1 − 1/e)·OPT on monotone submodular functions.
	bound := 1 - 1/math.E
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		k := 1 + rng.Intn(n/2+1)
		f := fl(t, randomSimilarity(rng, n))
		g, err := Greedy(f, k)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := BruteForce(f, k)
		if err != nil {
			t.Fatal(err)
		}
		if g.Value < bound*opt.Value-1e-9 {
			t.Fatalf("seed %d: greedy %g < (1-1/e)·OPT %g", seed, g.Value, bound*opt.Value)
		}
		if g.Value > opt.Value+1e-9 {
			t.Fatalf("seed %d: greedy exceeds OPT?!", seed)
		}
	}
}

// GreedyWarmStart must equal LazyGreedy exactly — same selected order, same
// gains, same value — regardless of the prior it was seeded with: a perfect
// prior, a stale/garbage prior, an empty one. The prior only steers
// evaluation order.
func TestGreedyWarmStartMatchesLazyGreedy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		k := 1 + rng.Intn(n)
		f := fl(t, randomSimilarity(rng, n))
		l, err := LazyGreedy(f, k)
		if err != nil {
			t.Fatal(err)
		}
		priors := [][]int{
			nil,                                 // no prior: must degrade to plain lazy greedy
			l.Selected,                          // perfect prior
			l.Selected[:k/2],                    // truncated prior
			{n, -1, 0, 0},                       // garbage: out of range + duplicates
			rng.Perm(n)[:k],                     // random stale prior
			append([]int{n - 1}, l.Selected...), // shifted prior
		}
		for pi, prior := range priors {
			w, err := GreedyWarmStart(f, k, prior)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIntSlices(w.Selected, l.Selected) {
				t.Fatalf("seed %d prior %d: selected %v, want %v", seed, pi, w.Selected, l.Selected)
			}
			if math.Abs(w.Value-l.Value) > 0 {
				t.Fatalf("seed %d prior %d: value %g, want %g", seed, pi, w.Value, l.Value)
			}
			for i := range w.Gains {
				if w.Gains[i] != l.Gains[i] {
					t.Fatalf("seed %d prior %d: gain[%d] %g, want %g", seed, pi, i, w.Gains[i], l.Gains[i])
				}
			}
		}
	}
}

// Warm-start cost contract: with an intact prior the hint evaluation
// substitutes for the refresh lazy greedy would spend on the same element, so
// the evaluation count matches LazyGreedy exactly; an arbitrary prior costs
// at most one extra evaluation per displaced pick. Both stay far below plain
// greedy's n·k.
func TestGreedyWarmStartRepairsCheaply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, k := 40, 10
	f := fl(t, randomSimilarity(rng, n))
	l, err := LazyGreedy(f, k)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(f, k)
	if err != nil {
		t.Fatal(err)
	}
	w, err := GreedyWarmStart(f, k, l.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if w.Evaluations > l.Evaluations {
		t.Fatalf("perfect prior used %d evaluations, lazy greedy %d", w.Evaluations, l.Evaluations)
	}
	stale, err := GreedyWarmStart(f, k, rng.Perm(n)[:k])
	if err != nil {
		t.Fatal(err)
	}
	if stale.Evaluations > l.Evaluations+k {
		t.Fatalf("stale prior used %d evaluations, want ≤ lazy %d + k %d", stale.Evaluations, l.Evaluations, k)
	}
	if w.Evaluations >= g.Evaluations || stale.Evaluations >= g.Evaluations {
		t.Fatalf("warm start (%d/%d evals) not below plain greedy (%d)", w.Evaluations, stale.Evaluations, g.Evaluations)
	}
	if !equalIntSlices(w.Selected, l.Selected) {
		t.Fatalf("warm start diverged: %v vs %v", w.Selected, l.Selected)
	}
}

func TestGreedyWarmStartValidation(t *testing.T) {
	f := fl(t, randomSimilarity(rand.New(rand.NewSource(12)), 4))
	if _, err := GreedyWarmStart(f, 0, nil); err == nil {
		t.Fatal("expected error k=0")
	}
	if _, err := GreedyWarmStart(f, 5, nil); err == nil {
		t.Fatal("expected error k>n")
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStochasticGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := fl(t, randomSimilarity(rng, 20))
	res, err := StochasticGreedy(f, 5, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 5 {
		t.Fatalf("selected %d elements", len(res.Selected))
	}
	// Must be distinct.
	seen := map[int]bool{}
	for _, v := range res.Selected {
		if seen[v] {
			t.Fatalf("duplicate selection: %v", res.Selected)
		}
		seen[v] = true
	}
	// Should be within a reasonable factor of full greedy on average; check
	// a loose floor against the exact greedy value.
	g, _ := Greedy(f, 5)
	if res.Value < 0.5*g.Value {
		t.Fatalf("stochastic value %g too far below greedy %g", res.Value, g.Value)
	}
}

func TestStochasticGreedyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := fl(t, randomSimilarity(rng, 5))
	if _, err := StochasticGreedy(f, 2, 0, rng); err == nil {
		t.Fatal("expected eps validation error")
	}
	if _, err := StochasticGreedy(f, 2, 1.5, rng); err == nil {
		t.Fatal("expected eps validation error")
	}
	if _, err := StochasticGreedy(f, 2, 0.1, nil); err == nil {
		t.Fatal("expected nil rng error")
	}
}

func TestBruteForceSmall(t *testing.T) {
	w := [][]float64{
		{1.00, 0.95, 0.30},
		{0.95, 1.00, 0.30},
		{0.30, 0.30, 1.00},
	}
	f := fl(t, w)
	res, err := BruteForce(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal pairs are {0,2} or {1,2} with value 1+0.95+... compute: {0,2}:
	// max(1,.3)+max(.95,.3)+max(.3,1) = 1+0.95+1 = 2.95. {0,1} = 1+1+0.3=2.3.
	if math.Abs(res.Value-2.95) > 1e-12 {
		t.Fatalf("OPT = %g, want 2.95", res.Value)
	}
	if _, err := BruteForce(f, 4); err == nil {
		t.Fatal("expected k>n error")
	}
}

// Theorem 1 as a property: facility location on random non-negative
// similarity matrices is normalized, monotone and submodular.
func TestTheorem1Property(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		f, err := NewFacilityLocation(randomSimilarity(rng, n))
		if err != nil {
			return false
		}
		return f.Value(nil) == 0 &&
			IsMonotone(f, 30, rng) &&
			IsSubmodular(f, 30, rng)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A deliberately supermodular function must be rejected by the checker —
// guards against IsSubmodular vacuously passing.
type productObjective struct{ n int }

func (p productObjective) N() int { return p.n }
func (p productObjective) Value(s []int) float64 {
	// f(S) = |S|² is supermodular (increasing marginal gains).
	return float64(len(s) * len(s))
}

func TestIsSubmodularDetectsViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if IsSubmodular(productObjective{n: 6}, 200, rng) {
		t.Fatal("checker failed to detect supermodular function")
	}
	if !IsMonotone(productObjective{n: 6}, 200, rng) {
		t.Fatal("|S|² is monotone; checker disagrees")
	}
}

func BenchmarkGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f, _ := NewFacilityLocation(randomSimilarity(rng, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(f, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f, _ := NewFacilityLocation(randomSimilarity(rng, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LazyGreedy(f, 16); err != nil {
			b.Fatal(err)
		}
	}
}
