package dataset

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vfps/internal/mat"
)

func TestPaperSpecsMatchTableIII(t *testing.T) {
	want := map[string][2]int{
		"Bank": {10000, 11}, "Credit": {30000, 23}, "Phishing": {11055, 68},
		"Web": {64700, 300}, "Rice": {18185, 10}, "Adult": {32561, 123},
		"IJCNN": {141691, 22}, "SUSY": {5000000, 18}, "HDI": {253661, 21},
		"SD": {991346, 23},
	}
	if len(PaperSpecs) != len(want) {
		t.Fatalf("expected %d specs, got %d", len(want), len(PaperSpecs))
	}
	for _, s := range PaperSpecs {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected spec %s", s.Name)
		}
		if s.Instances != w[0] || s.Features != w[1] {
			t.Fatalf("%s: %d×%d, want %d×%d", s.Name, s.Instances, s.Features, w[0], w[1])
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("Rice")
	if err != nil || s.Name != "Rice" {
		t.Fatalf("SpecByName failed: %v", err)
	}
	if _, err := SpecByName("Nope"); err == nil {
		t.Fatal("expected error for unknown spec")
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	s, _ := SpecByName("Bank")
	d1, err := s.Generate(500)
	if err != nil {
		t.Fatal(err)
	}
	if d1.N() != 500 || d1.F() != 11 || len(d1.Y) != 500 {
		t.Fatalf("unexpected shape %dx%d", d1.N(), d1.F())
	}
	d2, _ := s.Generate(500)
	for i := range d1.X.Data {
		if d1.X.Data[i] != d2.X.Data[i] {
			t.Fatal("generation is not deterministic")
		}
	}
	for i := range d1.Y {
		if d1.Y[i] != d2.Y[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestGenerateBothClassesPresent(t *testing.T) {
	for _, s := range PaperSpecs {
		d, err := s.Generate(400)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		counts := make([]int, d.Classes)
		for _, y := range d.Y {
			if y < 0 || y >= d.Classes {
				t.Fatalf("%s: label %d out of range", s.Name, y)
			}
			counts[y]++
		}
		for c, n := range counts {
			if n == 0 {
				t.Fatalf("%s: class %d absent", s.Name, c)
			}
		}
	}
}

func TestGenerateBinaryDatasets(t *testing.T) {
	s, _ := SpecByName("Phishing")
	d, _ := s.Generate(300)
	for _, v := range d.X.Data {
		if v != 0 && v != 1 {
			t.Fatalf("binary dataset has value %g", v)
		}
	}
}

func TestGenerateContinuousStandardized(t *testing.T) {
	s, _ := SpecByName("Rice")
	d, _ := s.Generate(2000)
	for j := 0; j < d.F(); j++ {
		col := make([]float64, d.N())
		for i := 0; i < d.N(); i++ {
			col[i] = d.X.At(i, j)
		}
		if math.Abs(mat.Mean(col)) > 1e-6 {
			t.Fatalf("col %d mean %g not ~0", j, mat.Mean(col))
		}
	}
}

func TestGenerateIsLearnable(t *testing.T) {
	// A 1-NN classifier on the joint space must beat the majority baseline
	// comfortably; otherwise participant selection has nothing to find.
	s, _ := SpecByName("Rice")
	d, _ := s.Generate(1200)
	split, err := TrainValTest(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < split.Test.N(); i++ {
		q := split.Test.X.Row(i)
		best, bestD := -1, math.Inf(1)
		for j := 0; j < split.Train.N(); j++ {
			if dist := mat.SqDist(q, split.Train.X.Row(j)); dist < bestD {
				bestD, best = dist, j
			}
		}
		if split.Train.Y[best] == split.Test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(split.Test.N())
	if acc < 0.8 {
		t.Fatalf("Rice 1-NN accuracy %.3f too low; generator is not learnable", acc)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := Spec{Name: "x", Instances: 100, Features: 5, Classes: 2, Informative: 9}
	if _, err := bad.Generate(0); err == nil {
		t.Fatal("expected informative-range error")
	}
	bad2 := Spec{Name: "x", Instances: 100, Features: 5, Classes: 1, Informative: 2}
	if _, err := bad2.Generate(0); err == nil {
		t.Fatal("expected class-count error")
	}
	bad3 := Spec{Name: "x", Instances: 0, Features: 5, Classes: 2, Informative: 2}
	if _, err := bad3.Generate(0); err == nil {
		t.Fatal("expected row-count error")
	}
	bad4 := Spec{Name: "x", Instances: 10, Features: 5, Classes: 2, Informative: 3, Redundant: 4}
	if _, err := bad4.Generate(0); err == nil {
		t.Fatal("expected informative+redundant error")
	}
}

func TestSpecRows(t *testing.T) {
	s, _ := SpecByName("Bank")
	for _, c := range []struct{ max, want int }{
		{0, s.Instances},
		{-1, s.Instances},
		{120, 120},
		{s.Instances, s.Instances},
		{s.Instances + 1, s.Instances},
	} {
		if got := s.Rows(c.max); got != c.want {
			t.Errorf("Rows(%d) = %d, want %d", c.max, got, c.want)
		}
	}
	// Rows predicts what Generate materialises without generating it.
	d, err := s.Generate(s.Instances + 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != s.Rows(s.Instances+5) {
		t.Fatalf("Generate made %d rows, Rows says %d", d.N(), s.Rows(s.Instances+5))
	}
}

func TestTrainValTestProportions(t *testing.T) {
	s, _ := SpecByName("Bank")
	d, _ := s.Generate(1000)
	split, err := TrainValTest(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if split.Train.N() != 800 || split.Val.N() != 100 || split.Test.N() != 100 {
		t.Fatalf("split sizes %d/%d/%d", split.Train.N(), split.Val.N(), split.Test.N())
	}
	if _, err := TrainValTest(&Dataset{Name: "tiny", X: mat.New(3, 1), Y: []int{0, 1, 0}, Classes: 2}, 1); err == nil {
		t.Fatal("expected error for tiny dataset")
	}
}

func TestTrainValTestDisjointAndComplete(t *testing.T) {
	s, _ := SpecByName("Bank")
	d, _ := s.Generate(200)
	split, _ := TrainValTest(d, 3)
	// Fingerprint rows to verify the union covers the original multiset.
	fp := func(ds *Dataset) map[string]int {
		m := map[string]int{}
		for i := 0; i < ds.N(); i++ {
			m[fmt.Sprintf("%v", ds.X.Row(i))]++
		}
		return m
	}
	all := fp(d)
	got := map[string]int{}
	for _, part := range []*Dataset{split.Train, split.Val, split.Test} {
		for k, v := range fp(part) {
			got[k] += v
		}
	}
	if len(all) != len(got) {
		t.Fatal("split lost or invented rows")
	}
	for k, v := range all {
		if got[k] != v {
			t.Fatal("split multiset mismatch")
		}
	}
}

func TestVerticalSplitReconstructs(t *testing.T) {
	s, _ := SpecByName("Credit")
	d, _ := s.Generate(150)
	pt, err := VerticalSplit(d, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pt.P() != 4 {
		t.Fatalf("P = %d", pt.P())
	}
	// Feature indices must partition 0..F-1.
	seen := map[int]bool{}
	total := 0
	for _, idx := range pt.FeatureIdx {
		for _, c := range idx {
			if seen[c] {
				t.Fatalf("column %d assigned twice", c)
			}
			seen[c] = true
			total++
		}
	}
	if total != d.F() {
		t.Fatalf("assigned %d of %d columns", total, d.F())
	}
	// Party matrices must agree cell-by-cell with the original columns.
	for p, m := range pt.Parties {
		for i := 0; i < d.N(); i++ {
			for j, c := range pt.FeatureIdx[p] {
				if m.At(i, j) != d.X.At(i, c) {
					t.Fatal("party matrix does not match source columns")
				}
			}
		}
	}
}

func TestVerticalSplitValidation(t *testing.T) {
	s, _ := SpecByName("Rice")
	d, _ := s.Generate(50)
	if _, err := VerticalSplit(d, 0, 1); err == nil {
		t.Fatal("expected p=0 error")
	}
	if _, err := VerticalSplit(d, 11, 1); err == nil {
		t.Fatal("expected p>F error")
	}
}

func TestPartitionSelectAndJoint(t *testing.T) {
	s, _ := SpecByName("Rice")
	d, _ := s.Generate(60)
	pt, _ := VerticalSplit(d, 4, 2)
	sub, err := pt.Select([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.P() != 2 || sub.Parties[0] != pt.Parties[2] {
		t.Fatal("Select returned wrong parties")
	}
	joint := sub.Joint()
	if joint.Cols != len(pt.FeatureIdx[2])+len(pt.FeatureIdx[0]) {
		t.Fatal("Joint width wrong")
	}
	if _, err := pt.Select([]int{9}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestPartitionApplyRows(t *testing.T) {
	s, _ := SpecByName("Rice")
	d, _ := s.Generate(60)
	pt, _ := VerticalSplit(d, 3, 2)
	rows := []int{5, 1, 9}
	sub := pt.ApplyRows(rows)
	for p := range sub.Parties {
		for i, r := range rows {
			for j := range sub.FeatureIdx[p] {
				if sub.Parties[p].At(i, j) != pt.Parties[p].At(r, j) {
					t.Fatal("ApplyRows mismatch")
				}
			}
		}
	}
}

func TestWithDuplicates(t *testing.T) {
	s, _ := SpecByName("Rice")
	d, _ := s.Generate(80)
	pt, _ := VerticalSplit(d, 4, 2)
	dup := pt.WithDuplicates(3, 9)
	if dup.P() != 7 {
		t.Fatalf("P = %d, want 7", dup.P())
	}
	for p := 4; p < 7; p++ {
		src := dup.DuplicateOf[p]
		if src < 0 || src >= 4 {
			t.Fatalf("duplicate %d has invalid source %d", p, src)
		}
		a, b := dup.Parties[p], dup.Parties[src]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatal("duplicate party differs from source")
			}
		}
	}
	// Original partition must be untouched.
	if pt.P() != 4 {
		t.Fatal("WithDuplicates mutated the source partition")
	}
}

func TestLoadCSV(t *testing.T) {
	csvData := "f1,f2,label\n1.5,2.0,spam\n0.5,1.0,ham\n2.5,3.0,spam\n"
	d, err := LoadCSV(strings.NewReader(csvData), "mail", -1, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.F() != 2 || d.Classes != 2 {
		t.Fatalf("shape %dx%d classes %d", d.N(), d.F(), d.Classes)
	}
	// "ham" < "spam" so ham=0, spam=1.
	if d.Y[0] != 1 || d.Y[1] != 0 {
		t.Fatalf("labels %v", d.Y)
	}
	if d.X.At(0, 0) != 1.5 {
		t.Fatal("feature parse wrong")
	}
}

func TestLoadCSVLabelColumnMiddle(t *testing.T) {
	csvData := "1.0,yes,2.0\n3.0,no,4.0\n"
	d, err := LoadCSV(strings.NewReader(csvData), "x", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.F() != 2 || d.X.At(1, 1) != 4.0 {
		t.Fatal("middle label column parsed wrong")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), "x", 0, false); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := LoadCSV(strings.NewReader("1,a\n2,a\n"), "x", 5, false); err == nil {
		t.Fatal("expected label column range error")
	}
	if _, err := LoadCSV(strings.NewReader("oops,a\n1,b\n"), "x", 1, false); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := LoadCSV(strings.NewReader("1,a\n2,a\n"), "x", 1, false); err == nil {
		t.Fatal("expected single-class error")
	}
}

func TestSplitIndices(t *testing.T) {
	train, val, test, err := SplitIndices(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 80 || len(val) != 10 || len(test) != 10 {
		t.Fatalf("sizes %d/%d/%d", len(train), len(val), len(test))
	}
	seen := map[int]bool{}
	for _, g := range [][]int{train, val, test} {
		for _, r := range g {
			if seen[r] {
				t.Fatal("row assigned twice")
			}
			seen[r] = true
		}
	}
	if len(seen) != 100 {
		t.Fatal("rows lost")
	}
	if _, _, _, err := SplitIndices(5, 1); err == nil {
		t.Fatal("expected tiny-n error")
	}
}

func TestSelectLabels(t *testing.T) {
	y := []int{9, 8, 7, 6}
	got := SelectLabels(y, []int{2, 0})
	if got[0] != 7 || got[1] != 9 {
		t.Fatalf("SelectLabels = %v", got)
	}
}

func TestMulticlassGeneration(t *testing.T) {
	spec := Spec{
		Name: "multi", Instances: 600, Features: 12, Classes: 4,
		Informative: 6, Redundant: 5, ClustersPerClass: 1,
		ClassSep: 2.5, NoiseStd: 0.8, Seed: 77,
	}
	d, err := spec.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, y := range d.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n < 50 {
			t.Fatalf("class %d underrepresented: %d", c, n)
		}
	}
}
