package baselines

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/mat"
)

func testProxy(t *testing.T, name string, rows, parties, dups, k, nq int) (*Proxy, *dataset.Partition) {
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
	queries := make([]int, nq)
	for i := range queries {
		queries[i] = (i * 7) % rows
	}
	px, err := NewProxy(pt, d.Y, d.Classes, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	return px, pt
}

func TestProxyValidation(t *testing.T) {
	if _, err := NewProxy(nil, nil, 2, []int{0}, 3); err == nil {
		t.Fatal("expected partition error")
	}
	spec, _ := dataset.SpecByName("Rice")
	d, _ := spec.Generate(50)
	pt, _ := dataset.VerticalSplit(d, 2, 1)
	if _, err := NewProxy(pt, d.Y[:10], 2, []int{0}, 3); err == nil {
		t.Fatal("expected label mismatch error")
	}
	if _, err := NewProxy(pt, d.Y, 2, []int{0}, 0); err == nil {
		t.Fatal("expected k error")
	}
	if _, err := NewProxy(pt, d.Y, 2, nil, 3); err == nil {
		t.Fatal("expected empty-queries error")
	}
	if _, err := NewProxy(pt, d.Y, 2, []int{99}, 3); err == nil {
		t.Fatal("expected query-range error")
	}
}

func TestUtilityBoundsAndMonotoneTrend(t *testing.T) {
	px, _ := testProxy(t, "Rice", 200, 4, 0, 5, 30)
	for _, coalition := range [][]int{{}, {0}, {0, 1}, {0, 1, 2, 3}} {
		u := px.Utility(coalition)
		if u < 0 || u > 1 {
			t.Fatalf("utility %g out of [0,1]", u)
		}
	}
	// On learnable data the full consortium should beat the empty one.
	if px.Utility([]int{0, 1, 2, 3}) <= px.Utility(nil) {
		t.Fatal("full coalition no better than majority vote on learnable data")
	}
}

func TestProxyCostCharging(t *testing.T) {
	px, _ := testProxy(t, "Rice", 100, 3, 0, 5, 10)
	var counts costmodel.Counts
	px.Counts = &counts
	px.Utility([]int{0, 1})
	c := counts.Snapshot()
	wantEnc := int64(10 * 99 * 2) // queries × (N-1) × coalition size
	if c.Encryptions != wantEnc {
		t.Fatalf("encryptions %d, want %d", c.Encryptions, wantEnc)
	}
	// Empty coalition is free.
	px.Counts = new(costmodel.Counts)
	px.Utility(nil)
	if px.Counts.Snapshot().Encryptions != 0 {
		t.Fatal("empty coalition should not charge")
	}
}

func TestShapleyEfficiencyProperty(t *testing.T) {
	// Σ_p SV(p) must equal U(full) − U(∅).
	px, _ := testProxy(t, "Bank", 150, 4, 0, 5, 25)
	sv, err := ShapleyValues(px)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range sv {
		total += v
	}
	full := make([]int, px.P)
	for i := range full {
		full[i] = i
	}
	want := px.Utility(full) - px.Utility(nil)
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("efficiency violated: ΣSV=%g, U(P)-U(∅)=%g", total, want)
	}
}

func TestShapleySymmetryForDuplicates(t *testing.T) {
	// An exact replica of a party must receive the same Shapley value.
	px, pt := testProxy(t, "Rice", 120, 3, 1, 5, 20)
	sv, err := ShapleyValues(px)
	if err != nil {
		t.Fatal(err)
	}
	src := pt.DuplicateOf[3]
	if math.Abs(sv[3]-sv[src]) > 1e-9 {
		t.Fatalf("duplicate SV %g != source SV %g", sv[3], sv[src])
	}
}

func TestShapleyTwoPartyHandFormula(t *testing.T) {
	px, _ := testProxy(t, "Rice", 80, 2, 0, 5, 15)
	sv, err := ShapleyValues(px)
	if err != nil {
		t.Fatal(err)
	}
	u0 := px.Utility([]int{0})
	u1 := px.Utility([]int{1})
	u01 := px.Utility([]int{0, 1})
	ue := px.Utility(nil)
	want0 := 0.5*(u0-ue) + 0.5*(u01-u1)
	want1 := 0.5*(u1-ue) + 0.5*(u01-u0)
	if math.Abs(sv[0]-want0) > 1e-9 || math.Abs(sv[1]-want1) > 1e-9 {
		t.Fatalf("sv %v, want [%g %g]", sv, want0, want1)
	}
}

func TestShapleyMCApproximatesExact(t *testing.T) {
	px, _ := testProxy(t, "Bank", 120, 3, 0, 5, 20)
	exact, err := ShapleyValues(px)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ShapleyMC(px, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-mc[i]) > 0.1 {
			t.Fatalf("MC[%d]=%g vs exact %g", i, mc[i], exact[i])
		}
	}
	if _, err := ShapleyMC(px, 0, 1); err == nil {
		t.Fatal("expected samples validation error")
	}
}

func TestShapleyChargesExponentialCost(t *testing.T) {
	cost := func(parties int) int64 {
		px, _ := testProxy(t, "Credit", 60, parties, 0, 3, 8)
		var counts costmodel.Counts
		px.Counts = &counts
		if _, err := ShapleyValues(px); err != nil {
			t.Fatal(err)
		}
		return counts.Snapshot().Encryptions
	}
	c3, c5 := cost(3), cost(5)
	// 2^P coalitions with average size P/2: cost ratio ≈ (2^5·2.5)/(2^3·1.5) ≈ 6.7.
	if ratio := float64(c5) / float64(c3); ratio < 4 {
		t.Fatalf("Shapley cost did not grow exponentially: ratio %g", ratio)
	}
}

func TestSelectShapley(t *testing.T) {
	px, _ := testProxy(t, "Bank", 120, 4, 0, 5, 20)
	sel, err := SelectShapley(px, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] == sel[1] {
		t.Fatalf("selection %v", sel)
	}
}

func TestMutualInformationKnown(t *testing.T) {
	// Perfectly informative predictions: I = H(Y) = ln 2 for balanced binary.
	pred := []int{0, 0, 1, 1}
	truth := []int{0, 0, 1, 1}
	if got := MutualInformation(pred, truth, 2); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("MI %g, want ln2", got)
	}
	// Independent predictions: I = 0.
	pred = []int{0, 1, 0, 1}
	truth = []int{0, 0, 1, 1}
	if got := MutualInformation(pred, truth, 2); math.Abs(got) > 1e-12 {
		t.Fatalf("MI %g, want 0", got)
	}
	// Anti-correlated is still fully informative.
	pred = []int{1, 1, 0, 0}
	truth = []int{0, 0, 1, 1}
	if got := MutualInformation(pred, truth, 2); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("anti-correlated MI %g, want ln2", got)
	}
	if MutualInformation(nil, nil, 2) != 0 {
		t.Fatal("empty MI should be 0")
	}
}

func TestVFMineScoresFavorInformativeParties(t *testing.T) {
	px, _ := testProxy(t, "Rice", 200, 4, 0, 5, 30)
	scores, err := VFMineScores(px, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("scores %v", scores)
	}
	for _, s := range scores {
		if s < 0 {
			t.Fatalf("negative MI score %g", s)
		}
	}
}

func TestVFMineCheaperThanShapley(t *testing.T) {
	px, _ := testProxy(t, "Credit", 80, 5, 0, 3, 10)
	var shCounts, vmCounts costmodel.Counts
	px.Counts = &shCounts
	if _, err := ShapleyValues(px); err != nil {
		t.Fatal(err)
	}
	px.Counts = &vmCounts
	if _, err := VFMineScores(px, 0, 1); err != nil {
		t.Fatal(err)
	}
	if vmCounts.Snapshot().Encryptions >= shCounts.Snapshot().Encryptions {
		t.Fatalf("VF-MINE (%d) should be cheaper than Shapley (%d)",
			vmCounts.Snapshot().Encryptions, shCounts.Snapshot().Encryptions)
	}
}

func TestSelectVFMine(t *testing.T) {
	px, _ := testProxy(t, "Bank", 100, 4, 0, 5, 15)
	sel, err := SelectVFMine(px, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] == sel[1] {
		t.Fatalf("selection %v", sel)
	}
}

func TestVFMineValidation(t *testing.T) {
	px, _ := testProxy(t, "Rice", 60, 2, 0, 3, 5)
	px.P = 1
	if _, err := VFMineScores(px, 4, 1); err == nil {
		t.Fatal("expected P<2 error")
	}
}

func TestSelectRandom(t *testing.T) {
	sel, err := SelectRandom(6, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("selection %v", sel)
	}
	seen := map[int]bool{}
	for _, p := range sel {
		if p < 0 || p >= 6 || seen[p] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[p] = true
	}
	again, _ := SelectRandom(6, 3, 9)
	if !reflect.DeepEqual(sel, again) {
		t.Fatal("random selection not deterministic in the seed")
	}
	if _, err := SelectRandom(3, 0, 1); err == nil {
		t.Fatal("expected count error")
	}
	if _, err := SelectRandom(3, 4, 1); err == nil {
		t.Fatal("expected count>P error")
	}
}

func TestSelectTop(t *testing.T) {
	got := SelectTop([]float64{0.1, 0.9, 0.5, 0.9}, 3)
	want := []int{1, 3, 2} // ties by smaller index
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectTop = %v, want %v", got, want)
	}
	if len(SelectTop([]float64{1}, 5)) != 1 {
		t.Fatal("SelectTop should clamp count")
	}
}

func TestShapleyTooManyParties(t *testing.T) {
	px, _ := testProxy(t, "Rice", 60, 2, 0, 3, 5)
	px.P = 25
	if _, err := ShapleyValues(px); err == nil {
		t.Fatal("expected P>24 error")
	}
}

func knnShapleyFixture(t *testing.T, rows, parties, k, nTest int) (*dataset.Partition, []int, *dataset.Partition, []int) {
	t.Helper()
	spec, err := dataset.SpecByName("Rice")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(rows + nTest)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataset.VerticalSplit(d, parties, 3)
	if err != nil {
		t.Fatal(err)
	}
	trainRows := make([]int, rows)
	for i := range trainRows {
		trainRows[i] = i
	}
	testRows := make([]int, nTest)
	for i := range testRows {
		testRows[i] = rows + i
	}
	return pt.ApplyRows(trainRows), dataset.SelectLabels(d.Y, trainRows),
		pt.ApplyRows(testRows), dataset.SelectLabels(d.Y, testRows)
}

func TestKNNShapleyEfficiency(t *testing.T) {
	// Per test point, values sum to the full-set utility: the fraction of
	// the K nearest training points with the correct label. Averaged over
	// test points, the sums must still match.
	trainPt, yTr, testPt, yTest := knnShapleyFixture(t, 120, 3, 5, 8)
	values, err := KNNShapleySamples(trainPt, yTr, testPt, yTest, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, v := range values {
		got += v
	}
	// Recompute the average full-set utility directly.
	var want float64
	n := trainPt.Parties[0].Rows
	for ti := 0; ti < testPt.Parties[0].Rows; ti++ {
		dist := make([]float64, n)
		for p, party := range testPt.Parties {
			q := party.Row(ti)
			train := trainPt.Parties[p]
			for i := 0; i < n; i++ {
				dist[i] += mat.SqDist(q, train.Row(i))
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if dist[idx[a]] != dist[idx[b]] {
				return dist[idx[a]] < dist[idx[b]]
			}
			return idx[a] < idx[b]
		})
		correct := 0
		for j := 0; j < 5; j++ {
			if yTr[idx[j]] == yTest[ti] {
				correct++
			}
		}
		want += float64(correct) / 5
	}
	want /= float64(testPt.Parties[0].Rows)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("efficiency violated: Σvalues=%g, U(D)=%g", got, want)
	}
}

func TestKNNShapleyRanksHelpfulSamplesHigh(t *testing.T) {
	trainPt, yTr, testPt, yTest := knnShapleyFixture(t, 200, 3, 5, 20)
	values, err := KNNShapleySamples(trainPt, yTr, testPt, yTest, 5)
	if err != nil {
		t.Fatal(err)
	}
	// On learnable data, the mean value must be positive and some samples
	// must be clearly more valuable than others.
	var sum, maxV, minV float64
	maxV, minV = values[0], values[0]
	for _, v := range values {
		sum += v
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	if sum <= 0 {
		t.Fatalf("total value %g not positive", sum)
	}
	if maxV <= minV {
		t.Fatal("no spread in sample values")
	}
}

func TestKNNShapleyValidation(t *testing.T) {
	trainPt, yTr, testPt, yTest := knnShapleyFixture(t, 50, 2, 3, 4)
	if _, err := KNNShapleySamples(nil, nil, testPt, yTest, 3); err == nil {
		t.Fatal("expected partition error")
	}
	if _, err := KNNShapleySamples(trainPt, yTr[:5], testPt, yTest, 3); err == nil {
		t.Fatal("expected label mismatch error")
	}
	if _, err := KNNShapleySamples(trainPt, yTr, testPt, yTest, 0); err == nil {
		t.Fatal("expected k error")
	}
	if _, err := KNNShapleySamples(trainPt, yTr, testPt, yTest[:1], 3); err == nil {
		t.Fatal("expected test label mismatch error")
	}
	if _, err := KNNShapleySamples(trainPt, yTr, nil, yTest, 3); err == nil {
		t.Fatal("expected test partition error")
	}
}
