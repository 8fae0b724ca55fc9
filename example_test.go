package vfps_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"vfps"
)

// Example demonstrates the core workflow: wire a consortium over a vertical
// partition, select a diverse sub-consortium, and train on it.
func Example() {
	ctx := context.Background()
	data, err := vfps.GenerateDataset("Bank", 400)
	if err != nil {
		log.Fatal(err)
	}
	partition, err := vfps.VerticalSplit(data, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	cons, err := vfps.NewConsortium(ctx, vfps.Config{
		Partition: partition,
		Labels:    data.Y,
		Classes:   data.Classes,
	})
	if err != nil {
		log.Fatal(err)
	}
	sel, err := cons.Select(ctx, 2, vfps.SelectOptions{K: 5, NumQueries: 16, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d of %d participants\n", len(sel.Selected), cons.P())
	fmt.Printf("pruned to %v candidates per query\n", sel.AvgCandidates < float64(cons.N()-1))
	// Output:
	// selected 2 of 4 participants
	// pruned to true candidates per query
}

// ExampleConsortium_SelectWith compares the selection baselines of the
// paper on one consortium.
func ExampleConsortium_SelectWith() {
	ctx := context.Background()
	data, _ := vfps.GenerateDataset("Rice", 300)
	partition, _ := vfps.VerticalSplit(data, 3, 1)
	cons, _ := vfps.NewConsortium(ctx, vfps.Config{
		Partition: partition, Labels: data.Y, Classes: data.Classes,
	})
	opts := vfps.SelectOptions{K: 5, NumQueries: 8, Seed: 1}
	for _, m := range []vfps.Method{vfps.MethodShapley, vfps.MethodVFPS} {
		sel, err := cons.SelectWith(ctx, m, 2, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s chose %d participants\n", m, len(sel.Selected))
	}
	// Output:
	// shapley chose 2 participants
	// vfps-sm chose 2 participants
}

// ExampleRewardShares computes fair contribution shares after selection.
func ExampleRewardShares() {
	ctx := context.Background()
	data, _ := vfps.GenerateDataset("Rice", 200)
	partition, _ := vfps.VerticalSplit(data, 3, 1)
	cons, _ := vfps.NewConsortium(ctx, vfps.Config{
		Partition: partition, Labels: data.Y, Classes: data.Classes,
	})
	sel, _ := cons.Select(ctx, 3, vfps.SelectOptions{K: 5, NumQueries: 8, Seed: 1})
	shares, err := vfps.RewardShares(sel)
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	fmt.Printf("shares for %d participants sum to f(P): %v\n", len(shares), sum-sel.Value < 1e-9)
	// Output:
	// shares for 3 participants sum to f(P): true
}

// ExampleLoadCSV reads a labelled CSV — numeric feature columns, the label in
// the last column — into a dataset ready for a vertical split. Labels may be
// any strings; they map to class ids in sorted order.
func ExampleLoadCSV() {
	csv := `age,income,debt,label
34,52.5,3.1,no
51,80.0,9.4,yes
27,31.2,0.8,no
45,60.7,12.0,yes
`
	data, err := vfps.LoadCSV(strings.NewReader(csv), "loans", -1, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rows, %d features, %d classes\n", data.N(), data.F(), data.Classes)
	fmt.Println("labels:", data.Y)
	partition, err := vfps.VerticalSplit(data, 3, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parties:", partition.P())
	// Output:
	// 4 rows, 3 features, 2 classes
	// labels: [0 1 0 1]
	// parties: 3
}
