package vfps

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testConsortium(t *testing.T, name string, rows, parties int) *Consortium {
	t.Helper()
	d, err := GenerateDataset(name, rows)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := VerticalSplit(d, parties, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsortium(context.Background(), Config{
		Partition: pt, Labels: d.Y, Classes: d.Classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cons
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 10 {
		t.Fatalf("expected 10 datasets, got %v", names)
	}
}

func TestNewConsortiumValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewConsortium(ctx, Config{}); err == nil {
		t.Fatal("expected partition error")
	}
	d, _ := GenerateDataset("Rice", 100)
	pt, _ := VerticalSplit(d, 3, 1)
	if _, err := NewConsortium(ctx, Config{Partition: pt, Labels: d.Y[:5], Classes: 2}); err == nil {
		t.Fatal("expected label length error")
	}
	if _, err := NewConsortium(ctx, Config{Partition: pt, Labels: d.Y, Classes: 1}); err == nil {
		t.Fatal("expected classes error")
	}
}

func TestSelectPublicAPI(t *testing.T) {
	cons := testConsortium(t, "Bank", 200, 4)
	sel, err := cons.Select(context.Background(), 2, SelectOptions{K: 5, NumQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
	if sel.Counts.Encryptions == 0 {
		t.Fatal("no cost accounting")
	}
}

// TestConcurrentSelectionsReportTheirOwnCounts runs four selections at once
// on one consortium, each over its own query set, and requires each to pick
// what its solo twin picks on a fresh consortium and to report exactly the
// twin's Counts: costs travel with the calls, so concurrent selections never
// book each other's work.
func TestConcurrentSelectionsReportTheirOwnCounts(t *testing.T) {
	const selections, perSet = 4, 8
	ctx := context.Background()
	opts := func(i int) SelectOptions {
		queries := make([]int, perSet)
		for j := range queries {
			queries[j] = i*perSet + j
		}
		return SelectOptions{K: 5, Queries: queries}
	}
	shared := testConsortium(t, "Bank", 200, 4)
	defer shared.Close()
	got := make([]*Selection, selections)
	errs := make([]error, selections)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = shared.Select(ctx, 2, opts(i))
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent selection %d: %v", i, errs[i])
		}
		twin := testConsortium(t, "Bank", 200, 4)
		want, err := twin.Select(ctx, 2, opts(i))
		twin.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Selected, want.Selected) {
			t.Errorf("selection %d picked %v concurrently, %v alone", i, got[i].Selected, want.Selected)
		}
		if got[i].Counts != want.Counts {
			t.Errorf("selection %d counted\n  %v concurrently,\n  %v alone", i, got[i].Counts, want.Counts)
		}
	}
}

func TestSelectWithAllMethods(t *testing.T) {
	cons := testConsortium(t, "Bank", 150, 4)
	ctx := context.Background()
	opts := SelectOptions{K: 5, NumQueries: 10, Seed: 2}
	for _, m := range []Method{MethodVFPS, MethodVFPSBase, MethodRandom, MethodShapley, MethodVFMine} {
		sel, err := cons.SelectWith(ctx, m, 2, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(sel.Selected) != 2 || sel.Selected[0] == sel.Selected[1] {
			t.Fatalf("%s: selection %v", m, sel.Selected)
		}
		if sel.Method != m {
			t.Fatalf("method echo wrong: %s", sel.Method)
		}
	}
	if _, err := cons.SelectWith(ctx, Method("astrology"), 2, opts); err == nil {
		t.Fatal("expected unknown-method error")
	}
}

func TestSelectWithCostOrdering(t *testing.T) {
	// The paper's core efficiency claims, end to end through the public API:
	// shapley >> vfmine > vfps-sm, and vfps-sm-base > vfps-sm.
	cons := testConsortium(t, "Credit", 150, 4)
	ctx := context.Background()
	opts := SelectOptions{K: 5, NumQueries: 8, Seed: 2}
	get := func(m Method) float64 {
		sel, err := cons.SelectWith(ctx, m, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sel.ProjectedSeconds
	}
	sm := get(MethodVFPS)
	base := get(MethodVFPSBase)
	sh := get(MethodShapley)
	vm := get(MethodVFMine)
	if !(sh > vm && vm > sm) {
		t.Fatalf("projected cost ordering violated: shapley %g, vfmine %g, vfps %g", sh, vm, sm)
	}
	if base <= sm {
		t.Fatalf("base %g should cost more than fagin %g", base, sm)
	}
}

func TestEvaluateDownstreamModels(t *testing.T) {
	cons := testConsortium(t, "Rice", 600, 3)
	for _, m := range []ModelName{ModelKNN, ModelLR, ModelMLP} {
		ev, err := cons.Evaluate(m, nil, EvalOptions{K: 5, MaxEpochs: 6, LRGrid: []float64{0.01}, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if ev.Accuracy < 0.7 {
			t.Fatalf("%s accuracy %.3f too low", m, ev.Accuracy)
		}
		if ev.Counts.Encryptions == 0 {
			t.Fatalf("%s: no federated cost accounted", m)
		}
	}
	if _, err := cons.Evaluate(ModelName("SVM"), nil, EvalOptions{}); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestEvaluateSubsetCheaperThanAll(t *testing.T) {
	cons := testConsortium(t, "Credit", 400, 4)
	all, err := cons.Evaluate(ModelLR, nil, EvalOptions{MaxEpochs: 3, LRGrid: []float64{0.01}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cons.Evaluate(ModelLR, []int{0, 1}, EvalOptions{MaxEpochs: 3, LRGrid: []float64{0.01}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Counts.Encryptions >= all.Counts.Encryptions {
		t.Fatalf("subset training should be cheaper: %d vs %d",
			sub.Counts.Encryptions, all.Counts.Encryptions)
	}
}

func TestEvaluateInvalidParties(t *testing.T) {
	cons := testConsortium(t, "Rice", 200, 3)
	if _, err := cons.Evaluate(ModelKNN, []int{7}, EvalOptions{}); err == nil {
		t.Fatal("expected party range error")
	}
}

func TestAccessors(t *testing.T) {
	cons := testConsortium(t, "Rice", 100, 3)
	if cons.P() != 3 || cons.N() != 100 || cons.Classes() != 2 {
		t.Fatal("accessors wrong")
	}
	if cons.Partition().P() != 3 || len(cons.Labels()) != 100 {
		t.Fatal("partition/labels accessors wrong")
	}
}

func TestSelectDeterministicPublic(t *testing.T) {
	cons := testConsortium(t, "Bank", 150, 4)
	ctx := context.Background()
	a, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Selected, b.Selected) {
		t.Fatal("selection not deterministic")
	}
}

// TestSelectParallelismMatchesSequential runs one selection on a consortium
// pinned serial and on one with 4 queries in flight: the picks and W must
// match bit for bit.
func TestSelectParallelismMatchesSequential(t *testing.T) {
	d, err := GenerateDataset("Credit", 200)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := VerticalSplit(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	selectAt := func(parallelism int) *Selection {
		cons, err := NewConsortium(ctx, Config{Partition: pt, Labels: d.Y, Classes: d.Classes,
			Options: Options{Parallelism: parallelism}})
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Close()
		sel, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 12, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	seq, par := selectAt(1), selectAt(4)
	if !reflect.DeepEqual(seq.Selected, par.Selected) {
		t.Fatalf("parallel selection diverges: %v vs %v", seq.Selected, par.Selected)
	}
	for i := range seq.W {
		for j := range seq.W[i] {
			if seq.W[i][j] != par.W[i][j] {
				t.Fatal("parallel similarity matrix diverges")
			}
		}
	}
}

// TestPaillierSelectionBytesAreDeterministic runs the same selection on two
// fresh Paillier consortia, each under its own key, and requires the same
// wire bytes: every ciphertext is exactly the key's ciphertext width, so the
// count depends on how many ciphertexts travel and not on their random
// values. Four queries are in flight even on one core, so the counts must
// not depend on which query finishes first either.
func TestPaillierSelectionBytesAreDeterministic(t *testing.T) {
	d, err := GenerateDataset("Bank", 400)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := VerticalSplit(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() CostCounts {
		cons, err := NewConsortium(ctx, Config{Partition: pt, Labels: d.Y, Classes: d.Classes,
			Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7, Options: Options{Parallelism: 4}})
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Close()
		sel, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 24, Seed: 3, Base: true})
		if err != nil {
			t.Fatal(err)
		}
		return sel.Counts
	}
	a, b := run(), run()
	if a.Encryptions == 0 || a.Encryptions != b.Encryptions {
		t.Fatalf("encryptions %d and %d: the two selections did not send the same ciphertexts", a.Encryptions, b.Encryptions)
	}
	if a.BytesSent != b.BytesSent || a.FramingBytes != b.FramingBytes {
		t.Fatalf("same-seed selections sent %d/%d payload/framing bytes, then %d/%d",
			a.BytesSent, a.FramingBytes, b.BytesSent, b.FramingBytes)
	}
}

func TestSelectThresholdProtocol(t *testing.T) {
	cons := testConsortium(t, "Bank", 150, 4)
	ctx := context.Background()
	fagin, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 8, Seed: 2, TopK: "threshold"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fagin.Selected, ta.Selected) {
		t.Fatalf("TA selection diverges: %v vs %v", fagin.Selected, ta.Selected)
	}
	if ta.AvgCandidates > fagin.AvgCandidates {
		t.Fatalf("TA candidates %g exceed fagin %g", ta.AvgCandidates, fagin.AvgCandidates)
	}
}

// TestFaginAndBaseSelectAlikeOnTiedData runs VFPS-SM and VFPS-SM-BASE over
// the same query sets on Phishing, whose binary features tie partial
// distances heavily, and requires the two to pick the same participants with
// the same objective. Fagin's pruning must not change the neighbours: the
// leader ranks both variants' candidates by (distance, pseudo ID), the order
// every party's sub-ranking uses.
func TestFaginAndBaseSelectAlikeOnTiedData(t *testing.T) {
	cons := testConsortium(t, "Phishing", 1000, 4)
	defer cons.Close()
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		opts := SelectOptions{K: 10, NumQueries: 16, Seed: seed}
		fagin, err := cons.Select(ctx, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Base = true
		base, err := cons.Select(ctx, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fagin.Selected, base.Selected) || fagin.Value != base.Value {
			t.Errorf("seed %d: Fagin picked %v (objective %v), BASE %v (objective %v)",
				seed, fagin.Selected, fagin.Value, base.Selected, base.Value)
		}
	}
}

// TestBaseConflictsWithAnotherTopK pins that Base and a TopK naming another
// protocol are an error on every selection entry point, rather than TopK
// silently winning while the result is reported as VFPS-SM-BASE.
func TestBaseConflictsWithAnotherTopK(t *testing.T) {
	cons := testConsortium(t, "Bank", 150, 4)
	ctx := context.Background()
	opts := SelectOptions{K: 5, NumQueries: 6, Seed: 2, TopK: "fagin"}
	if _, err := cons.SelectWith(ctx, MethodVFPSBase, 2, opts); err == nil || !strings.Contains(err.Error(), "fagin") {
		t.Fatalf("SelectWith(vfps-sm-base, TopK fagin): err = %v, want the conflict named", err)
	}
	opts.Base = true
	if _, err := cons.Select(ctx, 2, opts); err == nil {
		t.Fatal("Select with Base and TopK fagin succeeded")
	}
	opts.TopK = "base"
	if _, err := cons.Select(ctx, 2, opts); err != nil {
		t.Fatalf("Base with TopK base: %v", err)
	}
	if _, err := cons.SelectWith(ctx, MethodVFPS, 2, SelectOptions{K: 5, NumQueries: 6, Seed: 2, TopK: "threshold"}); err != nil {
		t.Fatalf("vfps-sm with TopK threshold: %v", err)
	}
}

// TestNewConsortiumRefusesRetiredSchemes pins that the secagg and dp
// schemes are gone: asking for either fails with the key server's unknown
// scheme error, which names it.
func TestNewConsortiumRefusesRetiredSchemes(t *testing.T) {
	d, err := GenerateDataset("Rice", 60)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := VerticalSplit(d, 3, 1)
	for _, scheme := range []string{"secagg", "dp"} {
		cons, err := NewConsortium(context.Background(), Config{
			Partition: pt, Labels: d.Y, Classes: d.Classes, Scheme: scheme,
		})
		if err == nil {
			cons.Close()
			t.Fatalf("NewConsortium accepted scheme %q", scheme)
		}
		if want := fmt.Sprintf("unknown HE scheme %q", scheme); !strings.Contains(err.Error(), want) {
			t.Fatalf("scheme %q: err = %v, want it to contain %s", scheme, err, want)
		}
	}
}

func TestEvaluateGBDT(t *testing.T) {
	cons := testConsortium(t, "Rice", 600, 3)
	ev, err := cons.Evaluate(ModelGBDT, nil, EvalOptions{MaxEpochs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.8 {
		t.Fatalf("GBDT accuracy %.3f too low", ev.Accuracy)
	}
	if ev.Counts.Encryptions == 0 || ev.Counts.Decryptions == 0 {
		t.Fatal("GBDT federated cost not accounted")
	}
}

func TestRewardSharesPublic(t *testing.T) {
	cons := testConsortium(t, "Rice", 200, 3)
	sel, err := cons.Select(context.Background(), 2, SelectOptions{K: 5, NumQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := RewardShares(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 3 {
		t.Fatalf("shares %v", shares)
	}
	var sum float64
	for _, s := range shares {
		if s < 0 {
			t.Fatalf("negative share %g", s)
		}
		sum += s
	}
	if sum <= 0 {
		t.Fatal("shares sum to nothing")
	}
	if _, err := RewardShares(nil); err == nil {
		t.Fatal("expected nil-selection error")
	}
}

func TestSelectStratifiedQueries(t *testing.T) {
	cons := testConsortium(t, "Bank", 200, 4)
	sel, err := cons.Select(context.Background(), 2,
		SelectOptions{K: 5, NumQueries: 12, Seed: 2, Stratified: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
	if sel.QueriesUsed != 12 {
		t.Fatalf("queries used %d", sel.QueriesUsed)
	}
}

func TestEvaluateReportsAUCAndF1(t *testing.T) {
	cons := testConsortium(t, "Rice", 500, 3)
	for _, m := range []ModelName{ModelKNN, ModelLR, ModelGBDT} {
		ev, err := cons.Evaluate(m, nil, EvalOptions{K: 5, MaxEpochs: 8, LRGrid: []float64{0.01}, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if ev.AUC < 0.85 {
			t.Fatalf("%s: AUC %.3f too low", m, ev.AUC)
		}
		if ev.MacroF1 <= 0 || ev.MacroF1 > 1 {
			t.Fatalf("%s: F1 %.3f out of range", m, ev.MacroF1)
		}
	}
}

// multiclassConsortium builds a 4-class consortium from a custom generator
// shape (the paper's suite is binary; the library is not).
func multiclassConsortium(t *testing.T) *Consortium {
	t.Helper()
	// Reuse the Rice generator geometry but with 4 classes via CSV-free
	// direct construction: generate binary twice and remap? Simpler: build
	// from a custom spec through the internal dataset API is not exported,
	// so synthesise directly.
	d, err := GenerateDataset("Rice", 600)
	if err != nil {
		t.Fatal(err)
	}
	// Derive a 4-class labelling from feature quadrants so the task stays
	// learnable: class = 2*y + sign(first feature).
	y4 := make([]int, d.N())
	for i := range y4 {
		q := 0
		if d.X.At(i, 0) > 0 {
			q = 1
		}
		y4[i] = 2*d.Y[i] + q
	}
	pt, err := VerticalSplit(d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsortium(context.Background(), Config{
		Partition: pt, Labels: y4, Classes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cons
}

func TestMulticlassEndToEnd(t *testing.T) {
	cons := multiclassConsortium(t)
	ctx := context.Background()
	// Selection is label-free and must work unchanged.
	sel, err := cons.Select(ctx, 2, SelectOptions{K: 5, NumQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 2 {
		t.Fatalf("selected %v", sel.Selected)
	}
	// Downstream multiclass training: KNN and LR support C > 2.
	for _, m := range []ModelName{ModelKNN, ModelLR} {
		ev, err := cons.Evaluate(m, sel.Selected, EvalOptions{K: 5, MaxEpochs: 8, LRGrid: []float64{0.01}, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if ev.Accuracy < 0.4 { // 4 classes, chance = 0.25
			t.Fatalf("%s: multiclass accuracy %.3f at chance level", m, ev.Accuracy)
		}
		if ev.AUC != 0 {
			t.Fatalf("%s: AUC must be skipped for multiclass", m)
		}
	}
	// GBDT is binary-only and must refuse loudly.
	if _, err := cons.Evaluate(ModelGBDT, nil, EvalOptions{MaxEpochs: 5}); err == nil {
		t.Fatal("expected GBDT multiclass rejection")
	}
	// Shapley baseline uses labels and must handle 4 classes.
	if _, err := cons.SelectWith(ctx, MethodShapley, 2, SelectOptions{K: 5, NumQueries: 8, Seed: 1}); err != nil {
		t.Fatalf("shapley multiclass: %v", err)
	}
}

func TestKNNShapleyPublic(t *testing.T) {
	d, _ := GenerateDataset("Rice", 300)
	pt, _ := VerticalSplit(d, 3, 1)
	trainRows, _, testRows, err := SplitIndices(d.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	values, err := KNNShapley(
		pt.ApplyRows(trainRows), SelectLabels(d.Y, trainRows),
		pt.ApplyRows(testRows), SelectLabels(d.Y, testRows), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != len(trainRows) {
		t.Fatalf("got %d values for %d samples", len(values), len(trainRows))
	}
	var sum float64
	negatives := 0
	for _, v := range values {
		sum += v
		if v < 0 {
			negatives++
		}
	}
	if sum <= 0.5 {
		t.Fatalf("total value %g implausibly low on learnable data", sum)
	}
	// Label noise in the generator guarantees some harmful samples.
	if negatives == 0 {
		t.Fatal("expected some negative-value (harmful) samples")
	}
}

func TestFormatSelection(t *testing.T) {
	cons := testConsortium(t, "Rice", 120, 3)
	sel, err := cons.Select(context.Background(), 2, SelectOptions{K: 5, NumQueries: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatSelection(sel)
	for _, want := range []string{
		"selected participants:", "marginal gain", "similarity matrix",
		"encrypted candidates", "projected",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if FormatSelection(nil) != "<nil selection>" {
		t.Fatal("nil selection formatting wrong")
	}
}
