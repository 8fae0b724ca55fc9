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

// TestSelectWithThresholdVariant runs a selection on the Threshold
// Algorithm's leader-assisted scan: it is exact top-k like Fagin, so it must
// pick the same participants with the same similarity matrix.
func TestSelectWithThresholdVariant(t *testing.T) {
	cl, _ := cluster(t, "Bank", 150, 4, 0)
	queries := SampleQueries(150, 24, 3)
	fagin, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := Select(context.Background(), cl.Leader, 2, Config{K: 5, Queries: queries, Variant: vfl.VariantThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta.Selected, fagin.Selected) || !reflect.DeepEqual(ta.W, fagin.W) {
		t.Fatalf("threshold selected %v (W %v), fagin %v (W %v)", ta.Selected, ta.W, fagin.Selected, fagin.W)
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
