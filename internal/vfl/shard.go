package vfl

import (
	"context"
	"fmt"
	"math/bits"

	"vfps/internal/costmodel"
	"vfps/internal/obs"
)

// Sharded aggregation: the ciphertext tree reduce is index-deterministic —
// reduceVectors combines vecs[lo] += vecs[lo+span] for span = 1, 2, 4, … — so
// cutting the party axis into aligned power-of-two subtrees changes nothing
// about which pairs are added in which order. Every combination with
// span < SubtreeSize stays inside one subtree (even the ragged final one,
// whose local tree over p mod SubtreeSize parties performs exactly the
// combinations the full tree performs in that index range), and every
// combination with span ≥ SubtreeSize is exactly the tree reduce over the
// subtree roots in shard order. A coordinator that fans subtrees out to
// workers, reduces each locally, and tree-reduces the shard roots therefore
// produces bit-identical aggregates to the single-server path — Paillier
// addition is deterministic given its inputs.
//
// Slot-width negotiation is unchanged: each worker advertises the maximum
// NeedBits over its parties, the coordinator folds the maximum over workers —
// the same monotone maximum the unsharded server folds over all parties — so
// the dictated geometry trajectory is identical round for round.
//
// Coordinator, workers and failover all run the same collectReduce: a worker
// over its parties, the coordinator over the worker roster with each worker's
// root standing in for a party. A worker RPC failure degrades, not fails: the
// coordinator runs that shard's collectReduce over its parties itself
// (counted in vfps_shard_retries_total). The parties' sent caches do not know
// the worker is gone, so the failover pull withholds blocks the coordinator
// never received; the party link's one-shot NoCache retry (pullParty)
// absorbs that miss with a full resend.

// AggWorkerName returns the node name of shard worker i, mirroring PartyName.
func AggWorkerName(i int) string { return fmt.Sprintf("aggworker/%d", i) }

// ShardPlan assigns aligned power-of-two subtrees of the party axis to
// aggregation workers: worker i owns parties [i·SubtreeSize,
// min((i+1)·SubtreeSize, P)). The alignment is what preserves bit-identity
// (see the package comment above); Validate enforces it.
type ShardPlan struct {
	// SubtreeSize is the number of consecutive parties per shard; must be a
	// power of two so shard boundaries align with the reduce tree's cuts.
	SubtreeSize int
	// Workers lists the shard workers' node names in shard order; worker i
	// serves shard i. Must hold exactly ceil(P/SubtreeSize) names.
	Workers []string
}

// Validate checks the plan against a party count.
func (sp *ShardPlan) Validate(parties int) error {
	if parties <= 0 {
		return fmt.Errorf("vfl: shard plan over %d parties", parties)
	}
	if sp.SubtreeSize <= 0 || bits.OnesCount(uint(sp.SubtreeSize)) != 1 {
		return fmt.Errorf("vfl: shard subtree size %d is not a power of two", sp.SubtreeSize)
	}
	shards := (parties + sp.SubtreeSize - 1) / sp.SubtreeSize
	if len(sp.Workers) != shards {
		return fmt.Errorf("vfl: shard plan has %d workers, want %d (= ceil(%d/%d))",
			len(sp.Workers), shards, parties, sp.SubtreeSize)
	}
	seen := make(map[string]bool, len(sp.Workers))
	for _, w := range sp.Workers {
		if w == "" {
			return fmt.Errorf("vfl: shard plan has an empty worker name")
		}
		if seen[w] {
			return fmt.Errorf("vfl: duplicate shard worker %q", w)
		}
		seen[w] = true
	}
	return nil
}

// Range returns the party index range [lo, hi) of shard i.
func (sp *ShardPlan) Range(i, parties int) (lo, hi int) {
	lo = i * sp.SubtreeSize
	hi = min(lo+sp.SubtreeSize, parties)
	return lo, hi
}

// PlanSubtrees sizes a shard plan: the smallest power-of-two subtree that
// spreads parties over at most maxWorkers shards. Returns the subtree size
// and the resulting shard count (≤ maxWorkers; 1 means sharding is moot).
func PlanSubtrees(parties, maxWorkers int) (size, shards int) {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	per := (parties + maxWorkers - 1) / maxWorkers
	size = 1
	for size < per {
		size *= 2
	}
	return size, (parties + size - 1) / size
}

// SetShardPlan installs (or, with nil, removes) the coordinator's shard plan.
// With a plan set, collection fan-outs go to the shard workers instead of the
// parties; the workers must be registered on the same transport and built
// over the matching party subsets (see Options.ShardWorkers). Not safe
// to call concurrently with in-flight collections.
func (a *AggServer) SetShardPlan(plan *ShardPlan) error {
	if plan == nil {
		a.plan = nil
		return nil
	}
	if err := plan.Validate(len(a.parties)); err != nil {
		return err
	}
	cp := *plan
	cp.Workers = append([]string(nil), plan.Workers...)
	a.plan = &cp
	return nil
}

// ShardWorkers returns the coordinator's worker roster (nil when unsharded).
func (a *AggServer) ShardWorkers() []string {
	if a.plan == nil {
		return nil
	}
	return append([]string(nil), a.plan.Workers...)
}

// metricShardRetries counts shard collections the coordinator re-ran against
// the shard's parties directly after the assigned worker failed.
const metricShardRetries = "vfps_shard_retries_total"

func declareShard(reg *obs.Registry) *obs.CounterVec {
	return reg.Counter(metricShardRetries,
		"Shard collections re-collected directly from the shard's parties by the coordinator after the assigned aggregation worker failed.",
		"worker")
}

// DeclareShardMetrics pre-declares the shard-retry family on reg so it
// renders on /metrics before the first failover. Safe on a nil registry.
func DeclareShardMetrics(reg *obs.Registry) { declareShard(reg) }

func (a *AggServer) recordShardRetry(worker string) {
	reg := a.o.Load().Registry()
	if reg == nil {
		return
	}
	declareShard(reg).With(worker).Inc()
}

// pullShard fetches one shard's reduced vector from its worker. When the
// worker RPC fails the coordinator collects the shard's parties itself,
// reproducing the worker's root bit for bit (same parties, same dictate, same
// tree shape).
func (a *AggServer) pullShard(ctx context.Context, wi int, worker string, query int, ids []int, all bool, dictate int, noCache bool) (*collected, error) {
	req := &ShardCollectReq{Query: query, All: all, PackBits: dictate, NoCache: noCache}
	if !all {
		req.PseudoIDs = ids
	}
	var resp ShardCollectResp
	if err := a.call(ctx, worker, MethodShardCollect, req, &resp); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		a.recordShardRetry(worker)
		lo, hi := a.plan.Range(wi, len(a.parties))
		return a.collectParties(ctx, a.parties[lo:hi], query, ids, all, dictate, noCache)
	}
	col := &collected{pids: ids, blobs: resp.Ciphers, factor: resp.PackFactor,
		bits: resp.PackBits, need: resp.NeedBits}
	if all {
		col.pids = resp.PseudoIDs
	}
	return col, col.checkLen(worker)
}

// shardCollect serves MethodShardCollect on a shard worker: collect this
// worker's parties under the coordinator-dictated geometry, reduce the
// subtree, and return the root. Intra-shard mixed compliance falls back to
// one static re-collect exactly as the unsharded server would; the
// coordinator then sees the static geometry from this shard and re-dispatches
// all shards statically, matching the unsharded mixed-round recovery.
func (a *AggServer) shardCollect(ctx context.Context, r ShardCollectReq) ([]byte, error) {
	ctx, ssp := a.tracer().Start(ctx, SpanShardCollect)
	ssp.SetLabelInt("parties", int64(len(a.parties)))
	defer ssp.End()
	root, err := a.collectParties(ctx, a.parties, r.Query, r.PseudoIDs, r.All, r.PackBits, r.NoCache)
	if err != nil {
		return nil, err
	}
	resp := &ShardCollectResp{Ciphers: root.blobs, PackFactor: root.factor,
		PackBits: root.bits, NeedBits: root.need}
	if r.All {
		resp.PseudoIDs = root.pids
	}
	return reply(resp, &a.counts, &a.roleObs,
		costmodel.Raw{ItemsSent: int64(len(root.blobs)), Messages: 1})
}
