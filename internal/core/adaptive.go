package core

import (
	"context"
	"math"

	"vfps/internal/vfl"
)

// AdaptiveConfig tunes SelectAdaptive. It extends Config with a convergence
// rule: queries are processed in chunks until the similarity matrix
// stabilises, so easy consortia (e.g. with obvious duplicates) pay for far
// fewer encrypted KNN queries than the fixed-budget protocol.
type AdaptiveConfig struct {
	Config
	// ChunkSize is the number of queries added per round (default 8).
	ChunkSize int
	// Tolerance is the maximum absolute change of any W entry between
	// rounds that still counts as converged (default 0.01).
	Tolerance float64
	// MinQueries is the floor before convergence may trigger (default
	// 2×ChunkSize).
	MinQueries int
}

// SelectAdaptive runs VFPS-SM with an adaptive query budget: it consumes
// cfg.Queries chunk by chunk and stops as soon as two consecutive similarity
// estimates agree within Tolerance (or the query list is exhausted). Every
// other step is Select's, except that the similarity cache is not consulted:
// its key names the whole query list, not the realised budget.
func SelectAdaptive(ctx context.Context, leader *vfl.Leader, selectCount int, cfg AdaptiveConfig) (*Selection, error) {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 8
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}
	if cfg.MinQueries <= 0 {
		cfg.MinQueries = 2 * cfg.ChunkSize
	}
	cfg.Cache = nil
	return run(ctx, leader, selectCount, cfg.Config, func(ctx context.Context, c Config) (*vfl.SimilarityReport, error) {
		acc := leader.NewAccumulator()
		var prevW [][]float64
		var rep *vfl.SimilarityReport
		for remaining := c.Queries; len(remaining) > 0; {
			chunk := remaining[:min(len(remaining), cfg.ChunkSize)]
			remaining = remaining[len(chunk):]
			if err := leader.Accumulate(ctx, chunk, c.K, c.Variant, c.Parallelism, acc); err != nil {
				return nil, err
			}
			rep = acc.Report()
			if prevW != nil && acc.Queries() >= cfg.MinQueries && maxAbsDiff(prevW, rep.W) <= cfg.Tolerance {
				break
			}
			prevW = rep.W
		}
		return rep, nil
	})
}

func maxAbsDiff(a, b [][]float64) float64 {
	var m float64
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}
