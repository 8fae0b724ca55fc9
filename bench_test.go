package vfps_test

import (
	"context"
	"math/rand"
	"testing"

	"vfps"
	"vfps/internal/experiments"
	"vfps/internal/submod"
	"vfps/internal/topk"
)

// benchOpts is the shared workload for the table/figure benches: all ten
// datasets at a scale that keeps the full suite in minutes. cmd/vfpsbench
// regenerates the same tables at any scale.
func benchOpts() experiments.Options {
	return experiments.Options{
		Rows:      400,
		Queries:   16,
		K:         10,
		MaxEpochs: 8,
		Seed:      1,
		ScaleRows: true,
	}
}

// BenchmarkTable1 regenerates the motivating LR-on-SUSY comparison
// (selection + training time and accuracy for ALL/SHAPLEY/VF-MINE/VFPS-SM).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the accuracy grid: 3 downstream models × 10
// datasets × 5 selection methods.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Grid(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the end-to-end running-time grid over the same
// sweep (projected seconds under the calibrated cost model).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Grid(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the selection-time comparison, including the
// VFPS-SM-BASE ablation.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the MLP training-time comparison.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the duplicate-participant diversity study.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the scalability sweep (P = 4…20); SHAPLEY's
// exact 2^P enumeration is the dominant cost by design.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the impact-of-k sweep.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the candidate-pruning ablation (BASE vs Fagin).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- design-choice ablations beyond the paper's figures ---

// BenchmarkTopkAblation compares the three top-k merge strategies on the
// same ranked lists: the paper's Fagin choice, the Threshold Algorithm it
// mentions as an alternative, and the naive full merge.
func BenchmarkTopkAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := make([]*topk.RankedList, 4)
	for i := range lists {
		scores := make([]float64, 20000)
		for j := range scores {
			scores[j] = rng.Float64()
		}
		lists[i] = topk.NewRankedList(scores)
	}
	b.Run("fagin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := topk.Fagin(lists, 10, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threshold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := topk.Threshold(lists, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := topk.Naive(lists, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreedyAblation times greedy (Algorithm 1) on a ground set far
// larger than any consortium the system runs.
func BenchmarkGreedyAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 128
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
	f, err := submod.NewFacilityLocation(w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := submod.Greedy(f, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPaillierSelection runs the full selection protocol under real
// Paillier encryption at increasing modulus sizes, measuring how key size
// drives selection cost (the φe/φd knob of the cost model).
func BenchmarkPaillierSelection(b *testing.B) {
	d, err := vfps.GenerateDataset("Rice", 80)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := vfps.VerticalSplit(d, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bits := range []int{256, 512, 1024} {
		b.Run(map[int]string{256: "bits256", 512: "bits512", 1024: "bits1024"}[bits], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cons, err := vfps.NewConsortium(context.Background(), vfps.Config{
					Partition: pt, Labels: d.Y, Classes: d.Classes,
					Scheme: "paillier", KeyBits: bits, ShuffleSeed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cons.Select(context.Background(), 2,
					vfps.SelectOptions{K: 5, NumQueries: 4, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSelection measures the parallel HE pipeline end to end:
// the same real-Paillier selection pinned fully serial (Parallelism=1, no
// randomizer pool) versus the default worker-pool degree. The selected set
// and operation counts are identical by construction; only wall clock moves.
func BenchmarkParallelSelection(b *testing.B) {
	d, err := vfps.GenerateDataset("Bank", 120)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := vfps.VerticalSplit(d, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			cons, err := vfps.NewConsortium(context.Background(), vfps.Config{
				Partition: pt, Labels: d.Y, Classes: d.Classes,
				Scheme: "paillier", KeyBits: 512, ShuffleSeed: 7,
				Options: vfps.Options{Parallelism: mode.parallelism},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cons.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cons.Select(context.Background(), 2,
					vfps.SelectOptions{K: 5, NumQueries: 4, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectionVariants isolates the Fagin optimization: the same
// selection with and without candidate pruning on one mid-size dataset.
func BenchmarkSelectionVariants(b *testing.B) {
	d, err := vfps.GenerateDataset("IJCNN", 1000)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := vfps.VerticalSplit(d, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	cons, err := vfps.NewConsortium(context.Background(), vfps.Config{
		Partition: pt, Labels: d.Y, Classes: d.Classes,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		base bool
	}{{"base", true}, {"fagin", false}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cons.Select(context.Background(), 2, vfps.SelectOptions{
					K: 10, NumQueries: 16, Seed: 1, Base: variant.base,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
