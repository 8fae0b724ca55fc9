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
