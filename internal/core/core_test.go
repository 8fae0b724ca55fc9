package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/vfl"
)

func cluster(t *testing.T, name string, rows, parties, dups int) (*vfl.Cluster, *dataset.Partition) {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(rows)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataset.VerticalSplit(d, parties, 42)
	if err != nil {
		t.Fatal(err)
	}
	if dups > 0 {
		pt = pt.WithDuplicates(dups, 17)
	}
	cl, err := vfl.NewLocalCluster(context.Background(), vfl.ClusterConfig{
		Partition:   pt,
		Scheme:      "plain",
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, pt
}

func TestSampleQueries(t *testing.T) {
	q := SampleQueries(100, 10, 1)
	if len(q) != 10 {
		t.Fatalf("got %d queries", len(q))
	}
	seen := map[int]bool{}
	for _, i := range q {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad sample %v", q)
		}
		seen[i] = true
	}
	if got := SampleQueries(5, 99, 1); len(got) != 5 {
		t.Fatalf("over-sample should return all rows, got %v", got)
	}
	// Deterministic in the seed.
	if !reflect.DeepEqual(SampleQueries(100, 10, 2), SampleQueries(100, 10, 2)) {
		t.Fatal("sampling not deterministic")
	}
}

func TestSelectBasic(t *testing.T) {
	cl, _ := cluster(t, "Bank", 120, 4, 0)
	sel, err := Select(context.Background(), cl.Leader, 2, Config{
		K:       5,
		Queries: SampleQueries(120, 12, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
	if sel.Selected[0] == sel.Selected[1] {
		t.Fatal("duplicate selection")
	}
	if sel.Value <= 0 {
		t.Fatalf("objective value %g", sel.Value)
	}
	if len(sel.Gains) != 2 || sel.Gains[1] > sel.Gains[0]+1e-9 {
		t.Fatalf("gains not diminishing: %v", sel.Gains)
	}
	if sel.Counts.Encryptions == 0 || sel.ProjectedSeconds <= 0 {
		t.Fatal("cost accounting missing")
	}
	if sel.AvgCandidates <= 0 {
		t.Fatal("candidate stats missing")
	}
}

func TestSelectAvoidsDuplicates(t *testing.T) {
	// 3 original parties + 3 exact duplicates: selecting 3 must never take
	// a party together with its own replica.
	cl, pt := cluster(t, "Rice", 150, 3, 3)
	sel, err := Select(context.Background(), cl.Leader, 3, Config{
		K:       5,
		Queries: SampleQueries(150, 15, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	group := func(p int) int {
		if src := pt.DuplicateOf[p]; src >= 0 {
			return src
		}
		return p
	}
	seen := map[int]bool{}
	for _, p := range sel.Selected {
		g := group(p)
		if seen[g] {
			t.Fatalf("selected redundant pair: %v (duplicateOf=%v)", sel.Selected, pt.DuplicateOf)
		}
		seen[g] = true
	}
}

func TestSelectVariantsAgree(t *testing.T) {
	cl, _ := cluster(t, "Credit", 100, 4, 0)
	queries := SampleQueries(100, 10, 9)
	base, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Variant: vfl.VariantBase})
	if err != nil {
		t.Fatal(err)
	}
	fagin, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Variant: vfl.VariantFagin})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Selected, fagin.Selected) {
		t.Fatalf("variants disagree: base %v fagin %v", base.Selected, fagin.Selected)
	}
	if fagin.Counts.Encryptions >= base.Counts.Encryptions {
		t.Fatalf("fagin should encrypt less: %d vs %d", fagin.Counts.Encryptions, base.Counts.Encryptions)
	}
	if fagin.ProjectedSeconds >= base.ProjectedSeconds {
		t.Fatal("fagin should project cheaper than base")
	}
}

func TestSelectOptimizersAgreeOnValue(t *testing.T) {
	cl, _ := cluster(t, "Bank", 100, 4, 0)
	queries := SampleQueries(100, 10, 2)
	greedy, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Optimizer: OptGreedy})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Optimizer: OptLazy})
	if err != nil {
		t.Fatal(err)
	}
	if d := greedy.Value - lazy.Value; d > 1e-9 || d < -1e-9 {
		t.Fatalf("lazy value %g != greedy %g", lazy.Value, greedy.Value)
	}
	stoch, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Optimizer: OptStochastic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stoch.Value < 0.5*greedy.Value {
		t.Fatalf("stochastic value %g too low vs %g", stoch.Value, greedy.Value)
	}
}

func TestSelectDeterministic(t *testing.T) {
	cl, _ := cluster(t, "Bank", 100, 4, 0)
	queries := SampleQueries(100, 10, 4)
	a, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Selected, b.Selected) {
		t.Fatalf("selection not deterministic: %v vs %v", a.Selected, b.Selected)
	}
}

func TestSelectValidation(t *testing.T) {
	cl, _ := cluster(t, "Rice", 50, 3, 0)
	ctx := context.Background()
	if _, err := Select(ctx, nil, 1, Config{}); err == nil {
		t.Fatal("expected nil-leader error")
	}
	if _, err := Select(ctx, cl.Leader, 0, Config{Queries: []int{1}}); err == nil {
		t.Fatal("expected count=0 error")
	}
	if _, err := Select(ctx, cl.Leader, 4, Config{Queries: []int{1}}); err == nil {
		t.Fatal("expected count>P error")
	}
	if _, err := Select(ctx, cl.Leader, 2, Config{}); err == nil {
		t.Fatal("expected no-queries error")
	}
	if _, err := Select(ctx, cl.Leader, 2, Config{Queries: []int{1}, Optimizer: Optimizer("annealing")}); err == nil {
		t.Fatal("expected optimizer error")
	}
	// Failures inside the protocol phases must name the phase: a cancelled
	// context breaks the very first query, and the error is wrapped as a
	// similarity-phase failure.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := Select(cancelled, cl.Leader, 2, Config{Queries: []int{1}})
	if err == nil {
		t.Fatal("expected cancelled-context error")
	}
	if !strings.HasPrefix(err.Error(), "core: similarity phase:") {
		t.Fatalf("similarity failure not wrapped with phase prefix: %v", err)
	}
}

func TestSelectWarmStartMatchesGreedy(t *testing.T) {
	cl, _ := cluster(t, "Bank", 100, 4, 0)
	queries := SampleQueries(100, 10, 6)
	greedy, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Optimizer: OptGreedy})
	if err != nil {
		t.Fatal(err)
	}
	// A warm start seeded with the prior answer, a stale prior, and no prior
	// at all must all reproduce the greedy selection exactly.
	for _, prior := range [][]int{greedy.Selected, {3, 0}, nil} {
		warm, err := Select(context.Background(), cl.Leader, 2, Config{
			K: 5, Queries: queries, Optimizer: OptWarmStart, WarmStart: prior,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm.Selected, greedy.Selected) {
			t.Fatalf("warm start (prior %v) selected %v, greedy %v", prior, warm.Selected, greedy.Selected)
		}
		if d := warm.Value - greedy.Value; d > 1e-12 || d < -1e-12 {
			t.Fatalf("warm start value %g != greedy %g", warm.Value, greedy.Value)
		}
	}
}

func TestSelectSimCacheReusesReport(t *testing.T) {
	cl, _ := cluster(t, "Bank", 100, 4, 0)
	queries := SampleQueries(100, 10, 8)
	cache := NewSimCache(0)
	cold, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d reports after first run", cache.Len())
	}
	warm, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Selected, cold.Selected) || !reflect.DeepEqual(warm.W, cold.W) {
		t.Fatalf("cached selection diverged: %v vs %v", warm.Selected, cold.Selected)
	}
	// The hit skipped the encrypted similarity phase entirely.
	if warm.Counts.Encryptions != 0 || warm.Counts.Decryptions != 0 || warm.Counts.CipherAdds != 0 {
		t.Fatalf("cache hit still paid HE ops: %+v", warm.Counts)
	}
	if cold.Counts.Encryptions == 0 {
		t.Fatalf("cold run paid no HE ops: %+v", cold.Counts)
	}
	// A different parameterisation must miss: same roster, new K.
	again, err := Select(context.Background(), cl.Leader, 2, Config{K: 6, Queries: queries, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if again.Counts.Encryptions == 0 {
		t.Fatal("K change should have missed the cache")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d reports after K change", cache.Len())
	}
}

func TestSimCacheEviction(t *testing.T) {
	c := NewSimCache(4)
	rep := &vfl.SimilarityReport{W: [][]float64{{1, 0.5}, {0.5, 1}}, Queries: 3}
	for i := 0; i < 12; i++ {
		c.Store(SimKey([]string{"a", "b"}, []int{i}, vfl.VariantBase, 5), rep)
	}
	if c.Len() != 4 {
		t.Fatalf("cache grew to %d entries past its limit", c.Len())
	}
	// Oldest keys evicted, newest retained; hits return deep copies.
	if _, ok := c.Lookup(SimKey([]string{"a", "b"}, []int{0}, vfl.VariantBase, 5)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	got, ok := c.Lookup(SimKey([]string{"a", "b"}, []int{11}, vfl.VariantBase, 5))
	if !ok {
		t.Fatal("newest entry missing")
	}
	got.W[0][1] = -1
	fresh, _ := c.Lookup(SimKey([]string{"a", "b"}, []int{11}, vfl.VariantBase, 5))
	if fresh.W[0][1] != 0.5 {
		t.Fatal("lookup returned an aliased report")
	}
}

func TestSelectAdaptiveConverges(t *testing.T) {
	cl, _ := cluster(t, "Rice", 300, 4, 0)
	ctx := context.Background()
	queries := SampleQueries(300, 64, 7)
	sel, err := SelectAdaptive(ctx, cl.Leader, 2, AdaptiveConfig{
		Config:    Config{K: 5, Queries: queries},
		ChunkSize: 8,
		Tolerance: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
	if sel.QueriesUsed > len(queries) || sel.QueriesUsed < 16 {
		t.Fatalf("queries used %d out of expected range", sel.QueriesUsed)
	}
	t.Logf("adaptive run used %d of %d queries", sel.QueriesUsed, len(queries))
}

func TestSelectAdaptiveUsesFewerQueriesOnEasyConsortia(t *testing.T) {
	// With exact duplicates the similarity matrix stabilises quickly.
	cl, _ := cluster(t, "Rice", 300, 3, 3)
	ctx := context.Background()
	queries := SampleQueries(300, 96, 9)
	sel, err := SelectAdaptive(ctx, cl.Leader, 3, AdaptiveConfig{
		Config:    Config{K: 5, Queries: queries},
		ChunkSize: 8,
		Tolerance: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.QueriesUsed >= len(queries) {
		t.Fatalf("adaptive never converged: used all %d queries", sel.QueriesUsed)
	}
}

func TestSelectAdaptiveValidation(t *testing.T) {
	cl, _ := cluster(t, "Rice", 60, 3, 0)
	ctx := context.Background()
	if _, err := SelectAdaptive(ctx, nil, 1, AdaptiveConfig{}); err == nil {
		t.Fatal("expected nil-leader error")
	}
	if _, err := SelectAdaptive(ctx, cl.Leader, 0, AdaptiveConfig{Config: Config{Queries: []int{1}}}); err == nil {
		t.Fatal("expected count error")
	}
	if _, err := SelectAdaptive(ctx, cl.Leader, 2, AdaptiveConfig{}); err == nil {
		t.Fatal("expected no-queries error")
	}
	if _, err := SelectAdaptive(ctx, cl.Leader, 2, AdaptiveConfig{
		Config: Config{Queries: []int{1, 2}, Optimizer: Optimizer("nope")},
	}); err == nil {
		t.Fatal("expected optimizer error")
	}
}

func TestSelectAdaptiveMatchesFullOnExhaustion(t *testing.T) {
	// With a tolerance of 0 the adaptive run exhausts all queries and must
	// match the fixed-budget selection exactly.
	cl, _ := cluster(t, "Bank", 150, 4, 0)
	ctx := context.Background()
	queries := SampleQueries(150, 16, 3)
	full, err := Select(ctx, cl.Leader, 2, Config{K: 5, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := SelectAdaptive(ctx, cl.Leader, 2, AdaptiveConfig{
		Config:    Config{K: 5, Queries: queries},
		ChunkSize: 4,
		Tolerance: 1e-18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Selected, adaptive.Selected) {
		t.Fatalf("adaptive %v vs full %v", adaptive.Selected, full.Selected)
	}
	if adaptive.QueriesUsed != len(queries) {
		t.Fatalf("expected exhaustion, used %d", adaptive.QueriesUsed)
	}
}

func TestSampleQueriesStratified(t *testing.T) {
	// 90/10 imbalanced labels: stratified sampling must include minority
	// rows.
	y := make([]int, 100)
	for i := 90; i < 100; i++ {
		y[i] = 1
	}
	q := SampleQueriesStratified(y, 2, 20, 1)
	if len(q) != 20 {
		t.Fatalf("got %d queries", len(q))
	}
	minority := 0
	seen := map[int]bool{}
	for _, r := range q {
		if seen[r] {
			t.Fatal("duplicate query row")
		}
		seen[r] = true
		if y[r] == 1 {
			minority++
		}
	}
	if minority < 1 {
		t.Fatal("stratified sample missed the minority class")
	}
	// Roughly proportional: expect ~2 of 20.
	if minority > 8 {
		t.Fatalf("minority oversampled: %d of 20", minority)
	}
	// Deterministic.
	q2 := SampleQueriesStratified(y, 2, 20, 1)
	if !reflect.DeepEqual(q, q2) {
		t.Fatal("stratified sampling not deterministic")
	}
	// count >= n falls back to everything.
	if got := SampleQueriesStratified(y, 2, 500, 1); len(got) != 100 {
		t.Fatalf("fallback returned %d", len(got))
	}
}

func TestSelectAdaptiveWithThresholdVariant(t *testing.T) {
	cl, _ := cluster(t, "Bank", 150, 4, 0)
	sel, err := SelectAdaptive(context.Background(), cl.Leader, 2, AdaptiveConfig{
		Config:    Config{K: 5, Queries: SampleQueries(150, 24, 3), Variant: vfl.VariantThreshold},
		ChunkSize: 6,
		Tolerance: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
}

func TestSelectAdaptiveLazyOptimizer(t *testing.T) {
	cl, _ := cluster(t, "Rice", 120, 3, 0)
	sel, err := SelectAdaptive(context.Background(), cl.Leader, 2, AdaptiveConfig{
		Config: Config{K: 5, Queries: SampleQueries(120, 16, 1), Optimizer: OptLazy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
}

func TestSelectWithStochasticOptimizerAdaptive(t *testing.T) {
	cl, _ := cluster(t, "Rice", 120, 3, 0)
	sel, err := SelectAdaptive(context.Background(), cl.Leader, 2, AdaptiveConfig{
		Config: Config{K: 5, Queries: SampleQueries(120, 16, 1), Optimizer: OptStochastic, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
}

func TestSampleQueriesStratifiedMissingClass(t *testing.T) {
	// A class id with no samples must not break allocation.
	y := make([]int, 50) // all class 0, classes=3 declared
	q := SampleQueriesStratified(y, 3, 10, 1)
	if len(q) != 10 {
		t.Fatalf("got %d queries", len(q))
	}
}
