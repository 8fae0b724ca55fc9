// Package core implements VFPS-SM itself — the paper's contribution: it
// drives the vertical-federated KNN oracle to estimate the pairwise
// participant similarities w(p,s), builds the KNN submodular likelihood
// f(S) = Σ_p max_{s∈S} w(p,s), and greedily selects the sub-consortium with
// maximum likelihood (Algorithm 1), while accounting every protocol cost.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/obs"
	"vfps/internal/submod"
	"vfps/internal/vfl"
)

// Config tunes a selection run.
type Config struct {
	// K is the neighbour count of the proxy KNN classifier (paper default
	// 10; Fig. 8 sweeps it).
	K int
	// Queries are the training-row indices used as KNN query samples. The
	// paper evaluates a query subset Q ⊆ D; use SampleQueries for a seeded
	// uniform sample.
	Queries []int
	// Variant picks VFPS-SM (fagin) or VFPS-SM-BASE (base).
	Variant vfl.Variant
	// Cache, when non-nil, memoises similarity reports by (roster, queries,
	// variant, K) so a selection whose membership recurs skips the encrypted
	// similarity phase entirely. Opt-in: leaving it nil preserves the
	// protocol's per-run cost profile for benchmarks.
	Cache *SimCache
}

// Selection reports the outcome of a VFPS-SM run.
type Selection struct {
	// Selected lists the chosen participants in selection order.
	Selected []int
	// Value is the likelihood objective f(Selected).
	Value float64
	// Gains are the per-step marginal gains (diminishing, by Theorem 1).
	Gains []float64
	// W is the estimated participant similarity matrix.
	W [][]float64
	// AvgCandidates is the mean per-query number of encrypted/communicated
	// instances (the Fig. 9 metric).
	AvgCandidates float64
	// Counts aggregates the primitive-operation counts of this selection
	// across every role.
	Counts costmodel.Raw
	// WallTime is the measured selection duration.
	WallTime time.Duration
	// ProjectedSeconds prices Counts under the calibrated cost model,
	// projecting the selection cost of an encrypted deployment.
	ProjectedSeconds float64
	// Evaluations counts objective evaluations in the maximization step.
	Evaluations int
	// QueriesUsed is the number of KNN queries processed,
	// len(Config.Queries).
	QueriesUsed int
}

// SampleQueries returns `count` distinct row indices from [0, n) drawn with
// the given seed; if count >= n it returns all rows.
func SampleQueries(n, count int, seed int64) []int {
	if count >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:count]
}

// SampleQueriesStratified draws `count` query rows with per-class
// proportional allocation (at least one per class when count allows),
// using the labels the leader holds. Class-balanced queries stabilise the
// likelihood estimate on imbalanced datasets.
func SampleQueriesStratified(y []int, classes, count int, seed int64) []int {
	n := len(y)
	if count >= n {
		return SampleQueries(n, count, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make([][]int, classes)
	for i, label := range y {
		if label >= 0 && label < classes {
			byClass[label] = append(byClass[label], i)
		}
	}
	out := make([]int, 0, count)
	for c, rows := range byClass {
		if len(rows) == 0 {
			continue
		}
		// Proportional share, rounded, with a floor of one.
		share := count * len(rows) / n
		if share < 1 {
			share = 1
		}
		if share > len(rows) {
			share = len(rows)
		}
		perm := rng.Perm(len(rows))
		for i := 0; i < share && len(out) < count; i++ {
			out = append(out, rows[perm[i]])
		}
		_ = c
	}
	// Top up from the global pool if rounding left us short.
	if len(out) < count {
		in := map[int]bool{}
		for _, r := range out {
			in[r] = true
		}
		for _, r := range rng.Perm(n) {
			if len(out) == count {
				break
			}
			if !in[r] {
				out = append(out, r)
				in[r] = true
			}
		}
	}
	return out
}

// Select runs the full VFPS-SM pipeline against an already wired cluster
// leader, choosing selectCount of the leader's participants: validation and
// defaults, then the two phases — similarity estimation (unless cfg.Cache
// holds the report) and greedy submodular maximization (Algorithm 1) — with
// their spans, the selection-level query-log event and the Selection. Counts
// is what the selection's ctx accumulator summed: the leader's own work plus
// the cost trailer of every response it received, so concurrent selections
// each report their own.
func Select(ctx context.Context, leader *vfl.Leader, selectCount int, cfg Config) (*Selection, error) {
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

	// Each phase — similarity estimation, submodular maximization — opens a
	// sequential root span so a trace report's per-phase durations decompose
	// the selection wall clock. The phases share one trace ID (without a
	// parent link, preserving the root-phase report shape), so a cross-node
	// span forest groups an entire selection — including every remote RPC it
	// fanned out — under a single trace.
	observer := leader.Observer()
	tracer := observer.Tracer()
	var traceID obs.TraceID
	if tracer != nil {
		ctx, traceID = obs.ContextWithNewTrace(ctx)
	}
	selID := obs.QueryIDFromContext(ctx)
	if observer != nil && selID == "" {
		selID = obs.NewQueryID("s")
		ctx = obs.ContextWithQueryID(ctx, selID)
	}
	ctx, counts := costmodel.WithCounts(ctx)
	start := time.Now()
	phaseStart := start
	var phases []obs.PhaseSecs
	phase := func(name string) {
		if observer != nil {
			now := time.Now()
			phases = append(phases, obs.PhaseSecs{Name: name, Seconds: now.Sub(phaseStart).Seconds()})
			phaseStart = now
		}
	}
	var simKey string
	var rep *vfl.SimilarityReport
	var err error
	if cfg.Cache != nil {
		simKey = SimKey(leader.Parties(), cfg.Queries, cfg.Variant, cfg.K)
		var hit bool
		rep, hit = cfg.Cache.Lookup(simKey)
		if observer != nil {
			recordSimCache(observer.Registry(), leader.Instance(), hit)
		}
	}
	if rep == nil {
		sctx, ssp := tracer.Start(ctx, "select.similarity")
		ssp.SetLabelInt("queries", int64(len(cfg.Queries)))
		ssp.SetLabelInt("k", int64(cfg.K))
		rep, err = leader.Similarities(sctx, cfg.Queries, cfg.K, cfg.Variant)
		ssp.End()
		phase("similarity")
		if err != nil {
			return nil, fmt.Errorf("core: similarity phase: %w", err)
		}
		if cfg.Cache != nil {
			cfg.Cache.Store(simKey, rep)
		}
	} else {
		phase("similarity")
	}
	_, msp := tracer.Start(ctx, "select.maximize")
	obj, err := submod.NewFacilityLocation(rep.W)
	if err != nil {
		msp.End()
		return nil, fmt.Errorf("core: building objective: %w", err)
	}
	res, err := submod.Greedy(obj, selectCount)
	if err != nil {
		msp.End()
		return nil, fmt.Errorf("core: maximization: %w", err)
	}
	msp.SetLabelInt("evaluations", int64(res.Evaluations))
	msp.End()
	phase("maximize")
	total := counts.Snapshot()
	// One selection-level query-log event: end-to-end latency decomposed by
	// phase, plus the full cost-model snapshot as attributes.
	if observer != nil {
		ev := obs.QueryEvent{
			Kind:    "selection",
			ID:      selID,
			Tenant:  leader.Instance(),
			Seconds: time.Since(start).Seconds(),
			Phases:  phases,
			Attrs:   total.Attrs(),
		}
		if !traceID.IsZero() {
			ev.Trace = traceID.String()
		}
		ev.Attrs["queries"] = rep.Queries
		ev.Attrs["k"] = cfg.K
		ev.Attrs["variant"] = string(cfg.Variant)
		ev.Attrs["selected"] = len(res.Selected)
		observer.Log().Record(ev)
	}
	return &Selection{
		Selected:         res.Selected,
		Value:            res.Value,
		Gains:            res.Gains,
		W:                rep.W,
		AvgCandidates:    rep.AvgCandidates,
		Counts:           total,
		WallTime:         time.Since(start),
		ProjectedSeconds: costmodel.Default.Seconds(total),
		Evaluations:      res.Evaluations,
		QueriesUsed:      rep.Queries,
	}, nil
}
