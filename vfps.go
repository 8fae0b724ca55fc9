// Package vfps is a Go implementation of VFPS-SM, the participant-selection
// framework for vertical federated learning from "Hounding Data Diversity:
// Towards Participant Selection in Vertical Federated Learning" (ICDE 2025).
//
// Given a consortium of participants that each hold a vertical slice of a
// shared dataset's feature space, the library selects the sub-consortium
// that maximises a KNN-driven data-likelihood objective. The objective is
// submodular, so greedy selection carries a 1−1/e guarantee and naturally
// rewards feature diversity: near-duplicate participants are never chosen
// together. The selection protocol runs under additively homomorphic
// encryption and uses Fagin's top-k algorithm to prune the number of
// encrypted partial distances from N per query down to a small candidate
// set.
//
// Quickstart:
//
//	d, _ := vfps.GenerateDataset("Bank", 2000)
//	part, _ := vfps.VerticalSplit(d, 4, 1)
//	cons, _ := vfps.NewConsortium(ctx, vfps.Config{
//		Partition: part, Labels: d.Y, Classes: d.Classes,
//	})
//	sel, _ := cons.Select(ctx, 2, vfps.SelectOptions{})
//	fmt.Println(sel.Selected)
//
// The baselines evaluated in the paper (RANDOM, SHAPLEY, VF-MINE) are
// available through SelectWith, and downstream KNN/LR/MLP models through
// Evaluate, so end-to-end comparisons can be reproduced directly.
package vfps

import (
	"context"
	"fmt"
	"time"

	"vfps/internal/baselines"
	"vfps/internal/core"
	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/mat"
	"vfps/internal/obs"
	"vfps/internal/vfl"
)

// Re-exported data types: the dataset layer is part of the public surface.
type (
	// Dataset is a labelled classification dataset.
	Dataset = dataset.Dataset
	// Partition is a vertical split of a dataset across participants.
	Partition = dataset.Partition
	// Selection reports a VFPS-SM run: the chosen participants, objective
	// value, similarity matrix, and full cost accounting.
	Selection = core.Selection
	// CostCounts is a snapshot of primitive-operation counts.
	CostCounts = costmodel.Raw
	// Options are the performance settings Config embeds: resource limits
	// and caches that never change a selection, a wire byte or an operation
	// count.
	Options = vfl.Options
)

// Method identifies a participant-selection strategy.
type Method string

// The selection strategies evaluated in the paper.
const (
	MethodVFPS     Method = "vfps-sm"      // this library's contribution
	MethodVFPSBase Method = "vfps-sm-base" // without Fagin pruning
	MethodRandom   Method = "random"
	MethodShapley  Method = "shapley"
	MethodVFMine   Method = "vfmine"
)

// Config wires a consortium.
type Config struct {
	// Partition holds each participant's local features (one row set shared
	// by all participants).
	Partition *Partition
	// Labels are the instance labels held by the leader participant.
	Labels []int
	// Classes is the number of label classes.
	Classes int
	// Scheme selects the protection backend: "paillier" for real additive
	// HE, or "plain" (default) for the op-count-preserving HE simulation
	// used by benchmark sweeps.
	Scheme string
	// KeyBits sizes the Paillier modulus (default 512, a demo size; use
	// ≥ 2048 wherever the ciphertexts leave the process). It also sets how many
	// partial distances ride in one ciphertext — about KeyBits/67 under the
	// static geometry — and NewConsortium fails, naming the smallest size that
	// works, when the key cannot hold one packed slot for the roster. Ignored
	// by the other schemes.
	KeyBits int
	// ShuffleSeed seeds the shared pseudo-ID permutation (identity
	// security); any fixed value shared by the consortium works.
	ShuffleSeed int64
	// FaginBatch is the mini-batch size b for ranked-list streaming
	// (default 32).
	FaginBatch int
	// Options are the performance settings: Parallelism and EncryptWindow
	// (see Options).
	Options
	// Obs installs metrics and tracing on every role of the consortium. Nil
	// falls back to the process default observer (obs.SetDefault); when that
	// is also unset, observability stays disabled at no measurable cost.
	Obs *obs.Observer
	// Instance labels the consortium's metric series when several
	// consortiums share one registry (default "local").
	Instance string
}

// Consortium is a wired VFL deployment ready to run participant selection
// and downstream training.
type Consortium struct {
	cluster *vfl.Cluster
	pt      *Partition
	labels  []int
	classes int

	// simCache memoises similarity reports by (roster, query set, variant,
	// K) for the consortium's lifetime, so a recurring membership skips the
	// encrypted similarity phase. Exact: a hit returns the report the same
	// inputs produced. It locks itself.
	simCache *core.SimCache
}

// NewConsortium builds the full in-process deployment: key server,
// aggregation server, one node per participant, and the leader.
func NewConsortium(ctx context.Context, cfg Config) (*Consortium, error) {
	if cfg.Partition == nil || cfg.Partition.P() == 0 {
		return nil, fmt.Errorf("vfps: config needs a partition")
	}
	n := cfg.Partition.Parties[0].Rows
	if len(cfg.Labels) != n {
		return nil, fmt.Errorf("vfps: %d labels for %d rows", len(cfg.Labels), n)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("vfps: need at least 2 classes")
	}
	cl, err := vfl.NewLocalCluster(ctx, vfl.ClusterConfig{
		Partition:   cfg.Partition,
		Scheme:      cfg.Scheme,
		KeyBits:     cfg.KeyBits,
		ShuffleSeed: cfg.ShuffleSeed,
		Batch:       cfg.FaginBatch,
		Options:     cfg.Options,
		Obs:         cfg.Obs,
		Instance:    cfg.Instance,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		core.DeclareSimCacheMetrics(cfg.Obs.Registry())
	}
	return &Consortium{cluster: cl, pt: cfg.Partition, labels: cfg.Labels, classes: cfg.Classes,
		simCache: core.NewSimCache(0)}, nil
}

// Close releases the consortium's background resources (randomizer
// precompute pools). The consortium stays usable afterwards.
func (c *Consortium) Close() { c.cluster.Close() }

// P returns the current number of participants, reflecting any membership
// changes since construction.
func (c *Consortium) P() int { return c.cluster.Leader.P() }

// PartyNames returns the current roster's node names in index order.
func (c *Consortium) PartyNames() []string { return c.cluster.PartyNames() }

// AddParticipant joins a new participant holding the given feature rows
// (one row per data instance, matching N) to the running consortium. The
// deployment is rewired in place — no teardown, surviving nodes keep their
// caches — so a Paillier re-selection after the join re-encrypts only the
// joiner's blocks wherever the candidates and the slot layout held. Returns
// the new party's node name.
// Callers must not run a selection concurrently; the server layer fences
// with its per-consortium run lock.
func (c *Consortium) AddParticipant(features [][]float64) (string, error) {
	if len(features) != c.N() {
		return "", fmt.Errorf("vfps: joiner has %d rows, consortium holds %d", len(features), c.N())
	}
	if len(features[0]) == 0 {
		return "", fmt.Errorf("vfps: joiner holds no features")
	}
	for i, r := range features {
		if len(r) != len(features[0]) {
			return "", fmt.Errorf("vfps: joiner row %d has %d features, row 0 has %d", i, len(r), len(features[0]))
		}
	}
	return c.cluster.AddParticipant(mat.FromRows(features))
}

// RemoveParticipant removes the participant with the given index (the i in
// its party/<i> node name) and rewires the deployment in place. The last
// participant cannot be removed.
func (c *Consortium) RemoveParticipant(index int) error {
	return c.cluster.RemoveParticipant(index)
}

// N returns the number of data instances.
func (c *Consortium) N() int { return c.pt.Parties[0].Rows }

// SelectOptions tunes a VFPS-SM selection. The zero value follows the
// paper's defaults.
type SelectOptions struct {
	// K is the proxy-KNN neighbour count (default 10).
	K int
	// NumQueries is the number of query samples drawn from the data
	// (default 32, or all rows if fewer). Ignored when Queries is set.
	NumQueries int
	// Queries overrides the sampled query set with explicit row indices.
	Queries []int
	// Seed drives query sampling.
	Seed int64
	// Stratified draws the query sample with per-class proportional
	// allocation using the leader's labels, which stabilises the likelihood
	// estimate on imbalanced data. Ignored when Queries is set.
	Stratified bool
	// Base disables the Fagin optimization (VFPS-SM-BASE).
	Base bool
	// TopK picks the top-k protocol: "fagin" (default), "base", or
	// "threshold" (leader-assisted Threshold Algorithm). With Base set it
	// must be "" or "base"; any other value is an error.
	TopK string
}

// queriesFor resolves the query set against a consortium, honouring the
// Stratified option (which needs the leader-held labels).
func (c *Consortium) queriesFor(o SelectOptions) []int {
	if len(o.Queries) > 0 {
		return o.Queries
	}
	nq := o.NumQueries
	if nq <= 0 {
		nq = 32
	}
	if o.Stratified {
		return core.SampleQueriesStratified(c.labels, c.classes, nq, o.Seed)
	}
	return core.SampleQueries(c.N(), nq, o.Seed)
}

func (o SelectOptions) k() int {
	if o.K <= 0 {
		return 10
	}
	return o.K
}

// coreConfig resolves SelectOptions into the protocol configuration,
// including the top-k variant (TopK, or Base, or Fagin; Base and a different
// TopK conflict).
func (c *Consortium) coreConfig(opts SelectOptions) (core.Config, error) {
	variant := vfl.VariantFagin
	if opts.Base {
		variant = vfl.VariantBase
	}
	if opts.TopK != "" {
		if opts.Base && vfl.Variant(opts.TopK) != vfl.VariantBase {
			return core.Config{}, fmt.Errorf("vfps: Base selects the %q protocol, but TopK asks for %q", vfl.VariantBase, opts.TopK)
		}
		variant = vfl.Variant(opts.TopK)
	}
	return core.Config{
		K:       opts.k(),
		Queries: c.queriesFor(opts),
		Variant: variant,
	}, nil
}

// Select runs VFPS-SM and returns the chosen sub-consortium with full cost
// accounting.
func (c *Consortium) Select(ctx context.Context, count int, opts SelectOptions) (*Selection, error) {
	cfg, err := c.coreConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.Cache = c.simCache
	return core.Select(ctx, c.cluster.Leader, count, cfg)
}

// BaselineSelection reports a baseline method's outcome with the same cost
// accounting as Selection.
type BaselineSelection struct {
	Method           Method
	Selected         []int
	Scores           []float64 // per-participant scores (nil for random)
	Counts           CostCounts
	WallTime         time.Duration
	ProjectedSeconds float64
}

// SelectWith runs any of the paper's selection strategies, returning a
// uniform report. For MethodVFPS and MethodVFPSBase the Selection is
// converted to a BaselineSelection for comparison tables.
func (c *Consortium) SelectWith(ctx context.Context, method Method, count int, opts SelectOptions) (*BaselineSelection, error) {
	start := time.Now()
	switch method {
	case MethodVFPS, MethodVFPSBase:
		opts.Base = method == MethodVFPSBase
		sel, err := c.Select(ctx, count, opts)
		if err != nil {
			return nil, err
		}
		return &BaselineSelection{
			Method:           method,
			Selected:         sel.Selected,
			Counts:           sel.Counts,
			WallTime:         sel.WallTime,
			ProjectedSeconds: sel.ProjectedSeconds,
		}, nil
	case MethodRandom:
		sel, err := baselines.SelectRandom(c.P(), count, opts.Seed)
		if err != nil {
			return nil, err
		}
		return &BaselineSelection{Method: method, Selected: sel, WallTime: time.Since(start)}, nil
	case MethodShapley, MethodVFMine:
		var counts costmodel.Counts
		px, err := baselines.NewProxy(c.pt, c.labels, c.classes, c.queriesFor(opts), opts.k())
		if err != nil {
			return nil, err
		}
		px.Counts = &counts
		var scores []float64
		if method == MethodShapley {
			scores, err = baselines.ShapleyValues(px)
		} else {
			scores, err = baselines.VFMineScores(px, 0, opts.Seed)
		}
		if err != nil {
			return nil, err
		}
		raw := counts.Snapshot()
		return &BaselineSelection{
			Method:           method,
			Selected:         baselines.SelectTop(scores, count),
			Scores:           scores,
			Counts:           raw,
			WallTime:         time.Since(start),
			ProjectedSeconds: costmodel.Default.Seconds(raw),
		}, nil
	default:
		return nil, fmt.Errorf("vfps: unknown selection method %q", method)
	}
}

// RewardShares computes fair, order-independent contribution shares from a
// completed selection: the Shapley values of the KNN submodular likelihood
// over the estimated similarity matrix. This addresses the reward-fairness
// limitation the paper leaves as future work (§IV-D) — greedy gains
// systematically under-credit later picks, while these shares are symmetric
// (exact duplicates earn the same) and sum to the full-consortium objective.
func RewardShares(sel *Selection) ([]float64, error) {
	if sel == nil {
		return nil, fmt.Errorf("vfps: nil selection")
	}
	return core.RewardShares(sel.W)
}

// Partition exposes the consortium's vertical partition.
func (c *Consortium) Partition() *Partition { return c.pt }

// Labels exposes the leader-held labels.
func (c *Consortium) Labels() []int { return c.labels }

// Classes returns the number of label classes.
func (c *Consortium) Classes() int { return c.classes }
