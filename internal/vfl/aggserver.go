package vfl

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"vfps/internal/costmodel"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/par"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// AggServer is the aggregation server role: it merges the participants'
// sub-rankings with Fagin's algorithm and homomorphically sums encrypted
// partial distances. It never holds the private key, so it only ever sees
// pseudo IDs and ciphertexts.
//
// Party requests fan out concurrently (indexed result slots keep pseudo-ID
// ordering and error precedence identical to the serial implementation) and
// ciphertext vectors are tree-reduced with a chunked worker pool; see
// Options.Parallelism.
type AggServer struct {
	roleObs
	cc          *transport.CodecCaller
	parties     []string // node names of the participants
	scheme      he.Scheme
	counts      costmodel.Counts
	parallelism int // ≤ 0 → par.Degree(); 1 → fully serial

	// role labels this server's metric series: AggServerName for the
	// coordinator (default), AggWorkerName(i) for a shard worker.
	role string

	// plan, when set, turns this server into a shard coordinator: collection
	// fan-outs go to the shard workers of the plan instead of the parties
	// directly, and the final reduce runs over the returned subtree roots.
	// See shard.go.
	plan *ShardPlan

	// packNeed is the adaptive pack negotiation state: the monotone maximum
	// of the slot-width bounds the parties advertised (NeedBits), plus a
	// drift margin. It is dictated back to the parties on the next adaptive
	// round; 0 until the first advertisement, which makes round one static.
	packNeed atomic.Int64

	// recvCache / sentCache hold the party→agg and agg→leader halves of the
	// cross-round delta encoding (see deltacache.go). The receive side is a
	// per-party pool: the FIFO bound applies per link, so one party's blocks
	// never evict another's — a shared FIFO at a 6+ roster overflows during a
	// single round and then never hits again.
	recvCache deltaCachePool
	sentCache deltaCache
}

// payloadOpts carries the requester's payload-optimisation knobs through the
// aggregation call tree.
type payloadOpts struct {
	adaptive bool
	delta    bool
	noCache  bool
}

// packBitsMargin is added to the dictated slot width so small round-to-round
// drift in the data's magnitude does not force a static fallback round.
const packBitsMargin = 2

// packDictate returns the slot width to dictate to the parties on an
// adaptive round: 0 (static) before the first advertisement.
func (a *AggServer) packDictate(adaptive bool) int {
	if !adaptive {
		return 0
	}
	return int(a.packNeed.Load())
}

// observeNeedBits folds the parties' advertised magnitude bounds into the
// negotiation state for the next round (monotone maximum).
func (a *AggServer) observeNeedBits(needs []int) {
	maxNeed := 0
	for _, n := range needs {
		if n > maxNeed {
			maxNeed = n
		}
	}
	if maxNeed == 0 {
		return
	}
	target := int64(maxNeed + packBitsMargin)
	for {
		cur := a.packNeed.Load()
		if target <= cur || a.packNeed.CompareAndSwap(cur, target) {
			return
		}
	}
}

// NewAggServer wires the server to its participants through the given
// transport. scheme must be the public (encrypt/add) scheme. It reads
// opts.Parallelism (party fan-out and reduce concurrency) and opts.PackHint,
// which seeds the slot-width negotiation (see Options.PackHint); a hint the
// data outgrew just triggers the standard static-fallback round.
func NewAggServer(caller transport.Caller, parties []string, scheme he.Scheme, opts Options) (*AggServer, error) {
	if caller == nil {
		return nil, fmt.Errorf("vfl: aggregation server needs a transport")
	}
	if len(parties) == 0 {
		return nil, fmt.Errorf("vfl: aggregation server needs participants")
	}
	if scheme == nil {
		return nil, fmt.Errorf("vfl: aggregation server needs an HE scheme")
	}
	a := &AggServer{cc: transport.NewCodecCaller(caller), parties: parties, scheme: scheme, parallelism: opts.Parallelism}
	if opts.PackHint > 0 {
		a.packNeed.Store(int64(opts.PackHint))
	}
	return a, nil
}

// call performs one outbound RPC and charges the encoded request bytes to the
// server's counters. The Messages counter stays responder-side, so round trips
// are not double-counted.
func (a *AggServer) call(ctx context.Context, node, method string, req, resp wire.Message) error {
	stats, err := a.cc.Invoke(ctx, node, method, req, resp)
	a.counts.Add(costmodel.Raw{BytesSent: stats.Payload, FramingBytes: stats.Framing})
	a.recordWire(stats.Payload, stats.Framing)
	return err
}

// SetParties replaces the server's participant roster after a membership
// change, without tearing the server down. Any shard plan is cleared — it was
// built for the old roster — so the caller must re-plan (SetShardPlan) when
// the reduce stays sharded. Not safe concurrently with an in-flight
// collection; callers fence membership changes with the consortium's run
// lock.
func (a *AggServer) SetParties(parties []string) error {
	if len(parties) == 0 {
		return fmt.Errorf("vfl: aggregation server needs participants")
	}
	a.parties = append([]string(nil), parties...)
	a.plan = nil
	// Release the receive caches of departed links; survivors keep theirs, so
	// their next-round blocks still restore without a resend.
	a.recvCache.retain(parties)
	return nil
}

// Counts exposes the server's operation counters.
func (a *AggServer) Counts() costmodel.Raw { return a.counts.Snapshot() }

// SetRole overrides the role label of this server's metric series (default
// "aggserver"). Shard workers set AggWorkerName(i) so coordinator and worker
// counters land in distinct series on a shared registry. Call before
// SetObserver.
func (a *AggServer) SetRole(name string) {
	if name != "" {
		a.role = name
	}
}

// roleName returns the metric-series role label.
func (a *AggServer) roleName() string {
	if a.role == "" {
		return AggServerName
	}
	return a.role
}

// PackHint exports the adaptive pack negotiation state (the dictated slot
// width, margin included; 0 before the first advertisement) so a serving
// layer can carry the learned width across consortium restarts.
func (a *AggServer) PackHint() int { return int(a.packNeed.Load()) }

// SetObserver installs metrics and tracing on the server: aggregation-phase
// spans and cost-model gauges labelled {instance, role} (role "aggserver"
// unless overridden via SetRole).
func (a *AggServer) SetObserver(o *obs.Observer, instance string) {
	a.store(o)
	a.counts.Register(o.Registry(), instance, a.roleName())
	DeclareDeltaMetrics(o.Registry())
	DeclareShardMetrics(o.Registry())
}

// Handler returns the server's RPC handler.
func (a *AggServer) Handler() transport.Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if err := wire.Unmarshal(req, nil); err != nil {
			return nil, err
		}
		switch method {
		case MethodCollectAll:
			var r CollectAllReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return a.collectAll(ctx, r)
		case MethodFaginCollect:
			var r FaginCollectReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return a.faginCollect(ctx, r)
		case MethodAggregateCandidates:
			var r AggregateCandidatesReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			opt := payloadOpts{adaptive: r.Adaptive, delta: r.Delta, noCache: r.NoCache}
			agg, factor, packBits, err := a.aggregateCandidates(ctx, r.Query, r.PseudoIDs, opt)
			if err != nil {
				return nil, err
			}
			resp := &AggregateCandidatesResp{PackFactor: factor, PackBits: packBits}
			if factor > 1 {
				resp.PackAdds = len(a.parties)
			}
			resp.Aggregated, resp.CachedBlocks = a.trimForLeader(r.Query, r.PseudoIDs, agg, factor, packBits, opt)
			return reply(resp, &a.counts, &a.roleObs,
				costmodel.Raw{ItemsSent: int64(len(agg) - len(resp.CachedBlocks)), Messages: 1})
		case MethodShardCollect:
			var r ShardCollectReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return a.shardCollect(ctx, r)
		case MethodAggregateFrontier:
			var r AggregateFrontierReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return a.aggregateFrontier(ctx, r)
		case MethodCounts:
			return marshal(&CountsResp{Counts: a.counts.Snapshot()})
		case MethodResetCounts:
			a.counts.Reset()
			return nil, nil
		default:
			return nil, fmt.Errorf("%w: %s", transport.ErrUnknownMethod, method)
		}
	}
}

// reduceVectors tree-reduces the per-party ciphertext vectors element-wise
// into vecs[0]: pairwise combination over the party dimension with the
// element loop spread over the worker pool. The reduction shape is fixed by
// party index, so results do not depend on the parallelism setting. It
// charges the performed CipherAdds — (P−1)·len, exactly what the serial
// left fold performed.
func (a *AggServer) reduceVectors(ctx context.Context, vecs [][][]byte) ([][]byte, error) {
	p := len(vecs)
	if p == 1 {
		return vecs[0], nil
	}
	ctx, rsp := a.tracer().Start(ctx, SpanReduce)
	rsp.SetLabelInt("n", int64(len(vecs[0])))
	defer rsp.End()
	adds := 0
	for span := 1; span < p; span *= 2 {
		for lo := 0; lo+span < p; lo += 2 * span {
			left, right := vecs[lo], vecs[lo+span]
			err := par.For(ctx, len(left), a.parallelism, func(i int) error {
				sum, err := a.scheme.Add(left[i], right[i])
				if err != nil {
					return fmt.Errorf("vfl: aggregating: %w", err)
				}
				left[i] = sum
				return nil
			})
			if err != nil {
				return nil, err
			}
			adds += len(left)
		}
	}
	a.counts.Add(costmodel.Raw{CipherAdds: int64(adds)})
	return vecs[0], nil
}

// restoreFromParty folds one party response's delta-withheld blocks back in
// from the receive cache and refreshes that cache. A cache miss (the agg
// evicted a block the party assumed cached) is reported via ErrDeltaCacheMiss
// so the caller can retry that party once with NoCache set.
func (a *AggServer) restoreFromParty(party string, query, packBits, factor int, pids []int, blobs [][]byte, cachedIdx []int) error {
	keys := blockKeys(party, query, packBits, factor, pids)
	hits, err := a.recvCache.forPeer(party).restore(keys, blobs, cachedIdx)
	if hits > 0 {
		a.counts.Add(costmodel.Raw{CacheHits: int64(hits)})
		a.recordDelta(a.roleName(), hits, 0)
	}
	if err != nil {
		return fmt.Errorf("vfl: restoring delta blocks from %s: %w", party, err)
	}
	return nil
}

// partyVec is one party's validated, fully restored ciphertext vector.
type partyVec struct {
	pids     []int
	ciphers  [][]byte
	factor   int
	packBits int
	needBits int
}

// pullCandidates fetches one party's encrypted candidate vector, retrying
// once with NoCache after a delta-cache miss.
func (a *AggServer) pullCandidates(ctx context.Context, party string, query int, pseudoIDs []int, dictate int, opt payloadOpts) (partyVec, error) {
	noCache := opt.noCache
	for attempt := 0; ; attempt++ {
		var resp EncryptCandidatesResp
		req := &EncryptCandidatesReq{Query: query, PseudoIDs: pseudoIDs,
			PackBits: dictate, Delta: opt.delta, NoCache: noCache}
		if err := a.call(ctx, party, MethodEncryptCandidates, req, &resp); err != nil {
			return partyVec{}, fmt.Errorf("vfl: collecting candidates from %s: %w", party, err)
		}
		factor := normFactor(resp.PackFactor)
		if want := packedLen(len(pseudoIDs), factor); len(resp.Ciphers) != want {
			return partyVec{}, fmt.Errorf("vfl: %s returned %d ciphertexts, want %d", party, len(resp.Ciphers), want)
		}
		if opt.delta {
			err := a.restoreFromParty(party, query, resp.PackBits, factor, pseudoIDs, resp.Ciphers, resp.CachedBlocks)
			if err != nil {
				if errors.Is(err, ErrDeltaCacheMiss) && attempt == 0 {
					a.counts.Add(costmodel.Raw{CacheMisses: 1})
					a.recordDelta(a.roleName(), 0, 1)
					noCache = true
					continue
				}
				return partyVec{}, err
			}
		} else if len(resp.CachedBlocks) > 0 {
			return partyVec{}, fmt.Errorf("vfl: %s withheld %d blocks without delta caching", party, len(resp.CachedBlocks))
		}
		return partyVec{pids: pseudoIDs, ciphers: resp.Ciphers, factor: factor,
			packBits: resp.PackBits, needBits: resp.NeedBits}, nil
	}
}

// pullAll fetches one party's full encrypted vector (BASE variant), retrying
// once with NoCache after a delta-cache miss.
func (a *AggServer) pullAll(ctx context.Context, party string, query, dictate int, opt payloadOpts) (partyVec, error) {
	noCache := opt.noCache
	for attempt := 0; ; attempt++ {
		var resp EncryptAllResp
		req := &EncryptAllReq{Query: query, PackBits: dictate, Delta: opt.delta, NoCache: noCache}
		if err := a.call(ctx, party, MethodEncryptAll, req, &resp); err != nil {
			return partyVec{}, fmt.Errorf("vfl: collecting from %s: %w", party, err)
		}
		factor := normFactor(resp.PackFactor)
		if want := packedLen(len(resp.PseudoIDs), factor); len(resp.Ciphers) != want {
			return partyVec{}, fmt.Errorf("vfl: %s returned %d ciphertexts for %d items, want %d",
				party, len(resp.Ciphers), len(resp.PseudoIDs), want)
		}
		if opt.delta {
			err := a.restoreFromParty(party, query, resp.PackBits, factor, resp.PseudoIDs, resp.Ciphers, resp.CachedBlocks)
			if err != nil {
				if errors.Is(err, ErrDeltaCacheMiss) && attempt == 0 {
					a.counts.Add(costmodel.Raw{CacheMisses: 1})
					a.recordDelta(a.roleName(), 0, 1)
					noCache = true
					continue
				}
				return partyVec{}, err
			}
		} else if len(resp.CachedBlocks) > 0 {
			return partyVec{}, fmt.Errorf("vfl: %s withheld %d blocks without delta caching", party, len(resp.CachedBlocks))
		}
		return partyVec{pids: resp.PseudoIDs, ciphers: resp.Ciphers, factor: factor,
			packBits: resp.PackBits, needBits: resp.NeedBits}, nil
	}
}

// uniformPacking checks that all collected vectors agree on the (pack
// factor, slot width) pair — slotwise addition is only meaningful over
// identical layouts. names labels the sources (parties, or shard workers on
// a coordinator) for error reporting.
func uniformPacking(names []string, pvs []partyVec) (factor, packBits int, err error) {
	factor, packBits = pvs[0].factor, pvs[0].packBits
	for pi := range pvs {
		if pvs[pi].factor != factor || pvs[pi].packBits != packBits {
			return 0, 0, fmt.Errorf("vfl: %s pack geometry (S=%d, V=%d) differs from %s's (S=%d, V=%d) — inconsistent packing configuration",
				names[pi], pvs[pi].factor, pvs[pi].packBits, names[0], factor, packBits)
		}
	}
	return factor, packBits, nil
}

// samePseudoIDs checks that every collected vector covers the same pseudo
// IDs in the same order (the BASE access pattern's alignment invariant).
func samePseudoIDs(names []string, pvs []partyVec) error {
	pids := pvs[0].pids
	for pi := 1; pi < len(pvs); pi++ {
		if len(pvs[pi].pids) != len(pids) {
			return fmt.Errorf("vfl: %s returned %d items, want %d", names[pi], len(pvs[pi].pids), len(pids))
		}
		for i := range pids {
			if pvs[pi].pids[i] != pids[i] {
				return fmt.Errorf("vfl: %s pseudo-id order mismatch at %d", names[pi], i)
			}
		}
	}
	return nil
}

// collectSubtree pulls the given parties' encrypted vectors concurrently
// under one dictated geometry: the candidate pattern when all is false, the
// full-vector BASE pattern otherwise.
func (a *AggServer) collectSubtree(ctx context.Context, parties []string, query int, pids []int, all bool, dictate int, opt payloadOpts) ([]partyVec, error) {
	pvs := make([]partyVec, len(parties))
	err := fanOut(ctx, a.parallelism, parties, func(pi int, party string) error {
		var pv partyVec
		var err error
		if all {
			pv, err = a.pullAll(ctx, party, query, dictate, opt)
		} else {
			pv, err = a.pullCandidates(ctx, party, query, pids, dictate, opt)
		}
		if err != nil {
			return err
		}
		pvs[pi] = pv
		return nil
	})
	return pvs, err
}

// collectVectors runs one full collection round — direct party fan-out, or
// worker fan-out with per-shard local reduction when a shard plan is set —
// and returns geometry-uniform vectors ready for the final reduce.
func (a *AggServer) collectVectors(ctx context.Context, query int, pids []int, all bool, opt payloadOpts) ([]partyVec, int, int, error) {
	dictate := a.packDictate(opt.adaptive)
	if a.plan != nil {
		return a.collectSharded(ctx, query, pids, all, dictate, opt)
	}
	collect := func(d int) ([]partyVec, error) {
		return a.collectSubtree(ctx, a.parties, query, pids, all, d, opt)
	}
	return a.collectUniform(a.parties, dictate, collect)
}

// collectNames labels the sources of one collection round: the shard workers
// on a sharded coordinator, the parties otherwise.
func (a *AggServer) collectNames() []string {
	if a.plan != nil {
		return a.plan.Workers
	}
	return a.parties
}

// aggregateCandidates pulls every party's encrypted partial distances for
// the given pseudo IDs concurrently and sums them element-wise. On adaptive
// rounds the dictated slot width is only kept when every party complied
// (a party whose values outgrew it falls back to static); a mixed round is
// re-collected under the static geometry once before giving up.
func (a *AggServer) aggregateCandidates(ctx context.Context, query int, pseudoIDs []int, opt payloadOpts) ([][]byte, int, int, error) {
	ctx, asp := a.tracer().Start(ctx, SpanAggregate)
	asp.SetLabelInt("candidates", int64(len(pseudoIDs)))
	defer asp.End()
	pvs, factor, packBits, err := a.collectVectors(ctx, query, pseudoIDs, false, opt)
	if err != nil {
		return nil, 0, 0, err
	}
	vecs := make([][][]byte, len(pvs))
	for pi := range pvs {
		vecs[pi] = pvs[pi].ciphers
	}
	agg, err := a.reduceVectors(ctx, vecs)
	if err != nil {
		return nil, 0, 0, err
	}
	return agg, factor, packBits, nil
}

// collectUniform runs one collection fan-out and enforces geometry
// uniformity, re-collecting once under the static geometry when an adaptive
// dictation produced a mixed round. Advertised NeedBits feed the negotiation
// state either way. names labels the fan-out targets for error reporting.
func (a *AggServer) collectUniform(names []string, dictate int, collect func(dictate int) ([]partyVec, error)) ([]partyVec, int, int, error) {
	pvs, err := collect(dictate)
	if err != nil {
		return nil, 0, 0, err
	}
	needs := make([]int, len(pvs))
	for pi := range pvs {
		needs[pi] = pvs[pi].needBits
	}
	a.observeNeedBits(needs)
	factor, packBits, uerr := uniformPacking(names, pvs)
	if uerr != nil && dictate > 0 {
		// Mixed compliance: at least one party could not fit the dictated
		// width. The static EnablePacking geometry is shared by construction,
		// so one static round always restores uniformity.
		if pvs, err = collect(0); err != nil {
			return nil, 0, 0, err
		}
		factor, packBits, uerr = uniformPacking(names, pvs)
	}
	if uerr != nil {
		return nil, 0, 0, uerr
	}
	return pvs, factor, packBits, nil
}

// trimForLeader applies the leader-link delta encoding to an outgoing
// aggregate vector: blocks the sent cache already holds are withheld
// (aggregation is recomputed every round, but homomorphic addition is
// deterministic, so an all-inputs-identical round reproduces the aggregate
// byte for byte). Returns the wire vector and the withheld indices.
func (a *AggServer) trimForLeader(query int, pids []int, agg [][]byte, factor, packBits int, opt payloadOpts) (out [][]byte, cached []int) {
	if !opt.delta {
		return agg, nil
	}
	keys := blockKeys("leader", query, packBits, factor, pids)
	if opt.noCache {
		for b, key := range keys {
			a.sentCache.put(key, agg[b])
		}
		return agg, nil
	}
	return a.sentCache.trim(keys, agg)
}

// aggregateFrontier sums the parties' encrypted scores at one scan rank —
// the encrypted Threshold-Algorithm bound τ.
func (a *AggServer) aggregateFrontier(ctx context.Context, r AggregateFrontierReq) ([]byte, error) {
	ctx, fsp := a.tracer().Start(ctx, SpanFrontier)
	defer fsp.End()
	singles := make([][][]byte, len(a.parties))
	err := fanOut(ctx, a.parallelism, a.parties, func(pi int, party string) error {
		var resp EncryptRankScoreResp
		if err := a.call(ctx, party, MethodEncryptRankScore,
			&EncryptRankScoreReq{Query: r.Query, Rank: r.Rank}, &resp); err != nil {
			return fmt.Errorf("vfl: frontier from %s: %w", party, err)
		}
		singles[pi] = [][]byte{resp.Cipher}
		return nil
	})
	if err != nil {
		return nil, err
	}
	agg, err := a.reduceVectors(ctx, singles)
	if err != nil {
		return nil, fmt.Errorf("vfl: aggregating frontier: %w", err)
	}
	return reply(&AggregateFrontierResp{Cipher: agg[0]}, &a.counts, &a.roleObs,
		costmodel.Raw{ItemsSent: 1, Messages: 1})
}

// collectAll implements the BASE variant: pull every participant's full
// encrypted partial-distance vector concurrently and sum them per pseudo ID.
func (a *AggServer) collectAll(ctx context.Context, r CollectAllReq) ([]byte, error) {
	ctx, csp := a.tracer().Start(ctx, SpanCollectAll)
	defer csp.End()
	opt := payloadOpts{adaptive: r.Adaptive, delta: r.Delta, noCache: r.NoCache}
	pvs, factor, packBits, err := a.collectVectors(ctx, r.Query, nil, true, opt)
	if err != nil {
		return nil, err
	}
	if err := samePseudoIDs(a.collectNames(), pvs); err != nil {
		return nil, err
	}
	pids := pvs[0].pids
	vecs := make([][][]byte, len(pvs))
	for pi := range pvs {
		vecs[pi] = pvs[pi].ciphers
	}
	agg, err := a.reduceVectors(ctx, vecs)
	if err != nil {
		return nil, err
	}
	resp := &CollectAllResp{PseudoIDs: pids, PackFactor: factor, PackBits: packBits}
	if factor > 1 {
		resp.PackAdds = len(a.parties)
	}
	resp.Aggregated, resp.CachedBlocks = a.trimForLeader(r.Query, pids, agg, factor, packBits, opt)
	return reply(resp, &a.counts, &a.roleObs,
		costmodel.Raw{ItemsSent: int64(len(agg) - len(resp.CachedBlocks)), Messages: 1})
}

// faginCollect implements the optimized variant: run Fagin's algorithm over
// the participants' sub-rankings (pulled in mini-batches, all parties in
// flight concurrently), then collect and aggregate encrypted partial
// distances for the candidate set only.
func (a *AggServer) faginCollect(ctx context.Context, r FaginCollectReq) ([]byte, error) {
	if r.K <= 0 {
		return nil, fmt.Errorf("vfl: k=%d must be positive", r.K)
	}
	if r.Batch <= 0 {
		return nil, fmt.Errorf("vfl: batch=%d must be positive", r.Batch)
	}
	ctx, fsp := a.tracer().Start(ctx, SpanFagin)
	defer fsp.End()
	p := len(a.parties)
	seenCount := map[int]int{}
	var candidates []int // in first-seen order
	fullySeen := 0
	depth := 0
	stats := FaginStats{}
	for fullySeen < r.K {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Pull the next mini-batch from every list concurrently; merge the
		// indexed responses in party order so the candidate first-seen order
		// is identical to the serial scan.
		batches := make([][]int, p)
		err := fanOut(ctx, a.parallelism, a.parties, func(pi int, party string) error {
			var resp RankingBatchResp
			if err := a.call(ctx, party, MethodRankingBatch,
				&RankingBatchReq{Query: r.Query, Offset: depth, Count: r.Batch}, &resp); err != nil {
				return fmt.Errorf("vfl: pulling ranking from %s: %w", party, err)
			}
			batches[pi] = resp.PseudoIDs
			return checkRankingBatch(party, resp.PseudoIDs, r.Batch)
		})
		if err != nil {
			return nil, err
		}
		exhausted := true
		for _, batch := range batches {
			if len(batch) > 0 {
				exhausted = false
			}
			for _, pid := range batch {
				c := seenCount[pid]
				if c == 0 {
					candidates = append(candidates, pid)
				}
				seenCount[pid] = c + 1
				if c+1 == p {
					fullySeen++
				}
			}
			a.counts.Add(costmodel.Raw{PlainAdds: int64(len(batch))})
		}
		stats.Rounds++
		depth += r.Batch
		if exhausted {
			if fullySeen < r.K {
				return nil, fmt.Errorf("vfl: lists exhausted with only %d of %d ids fully seen", fullySeen, r.K)
			}
			break
		}
	}
	stats.ScanDepth = depth
	stats.Candidates = len(candidates)
	fsp.SetLabelInt("rounds", int64(stats.Rounds))
	fsp.SetLabelInt("candidates", int64(stats.Candidates))

	// Random-access phase: encrypted partial distances for candidates only.
	opt := payloadOpts{adaptive: r.Adaptive, delta: r.Delta, noCache: r.NoCache}
	agg, factor, packBits, err := a.aggregateCandidates(ctx, r.Query, candidates, opt)
	if err != nil {
		return nil, err
	}
	resp := &FaginCollectResp{PseudoIDs: candidates, PackFactor: factor, PackBits: packBits, Stats: stats}
	if factor > 1 {
		resp.PackAdds = len(a.parties)
	}
	resp.Aggregated, resp.CachedBlocks = a.trimForLeader(r.Query, candidates, agg, factor, packBits, opt)
	return reply(resp, &a.counts, &a.roleObs,
		costmodel.Raw{ItemsSent: int64(len(agg) - len(resp.CachedBlocks)), Messages: 1})
}
