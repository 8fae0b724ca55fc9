package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/submod"
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
// estimates agree within Tolerance (or the query list is exhausted).
func SelectAdaptive(ctx context.Context, leader *vfl.Leader, selectCount int, cfg AdaptiveConfig) (*Selection, error) {
	if leader == nil {
		return nil, fmt.Errorf("core: nil leader")
	}
	if selectCount <= 0 || selectCount > leader.P() {
		return nil, fmt.Errorf("core: select count %d out of range [1,%d]", selectCount, leader.P())
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("core: no query samples configured")
	}
	if cfg.Variant == "" {
		cfg.Variant = vfl.VariantFagin
	}
	if cfg.Optimizer == "" {
		cfg.Optimizer = OptGreedy
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 8
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}
	if cfg.MinQueries <= 0 {
		cfg.MinQueries = 2 * cfg.ChunkSize
	}

	start := time.Now()
	if err := leader.ResetAllCounts(ctx); err != nil {
		return nil, err
	}
	acc := leader.NewAccumulator()
	var prevW [][]float64
	var rep *vfl.SimilarityReport
	remaining := cfg.Queries
	for len(remaining) > 0 {
		chunk := remaining
		if len(chunk) > cfg.ChunkSize {
			chunk = chunk[:cfg.ChunkSize]
		}
		remaining = remaining[len(chunk):]
		if err := leader.Accumulate(ctx, chunk, cfg.K, cfg.Variant, cfg.Parallelism, acc); err != nil {
			return nil, fmt.Errorf("core: adaptive similarity phase: %w", err)
		}
		rep = acc.Report()
		if prevW != nil && acc.Queries() >= cfg.MinQueries && maxAbsDiff(prevW, rep.W) <= cfg.Tolerance {
			break
		}
		prevW = rep.W
	}

	obj, err := submod.NewFacilityLocation(rep.W)
	if err != nil {
		return nil, fmt.Errorf("core: building objective: %w", err)
	}
	res, err := maximize(obj, selectCount, cfg.Config)
	if err != nil {
		return nil, err
	}
	perRole, err := leader.GatherCounts(ctx)
	if err != nil {
		return nil, err
	}
	var total costmodel.Raw
	for _, c := range perRole {
		total = total.Plus(c)
	}
	return &Selection{
		Selected:         res.Selected,
		Value:            res.Value,
		Gains:            res.Gains,
		W:                rep.W,
		AvgCandidates:    rep.AvgCandidates,
		Counts:           total,
		PerRole:          perRole,
		WallTime:         time.Since(start),
		ProjectedSeconds: costmodel.For(leader.Scheme().Name()).Seconds(total),
		Evaluations:      res.Evaluations,
		QueriesUsed:      acc.Queries(),
	}, nil
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
