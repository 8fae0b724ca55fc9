package vfl

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vfps/internal/costmodel"
	"vfps/internal/he"
	"vfps/internal/obs"
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
	parallelism int // ≤ 0 → par.Degree(); 1 → fully serial

	// widthMu guards packNeed, the monotone maximum of the slot widths the
	// parties advertised (NeedBits) plus a drift margin, and roundWidth, the
	// width dictated throughout each recent leader round. Only Paillier
	// parties advertise, so every other scheme stays at 0.
	widthMu    sync.Mutex
	packNeed   int
	roundWidth map[int]int

	// recvCache is the receive half of the party links' cross-round delta
	// encoding (see deltacache.go), used exactly when the scheme is Paillier.
	// It is a per-party pool: the byte bound applies per link, so one party's
	// blocks never evict another's — a shared FIFO at a 6+ roster overflows
	// during a single round and then never hits again.
	recvCache deltaCachePool
}

// packBitsMargin is added to the dictated slot width so small round-to-round
// drift in the data's magnitude does not force a static fallback round.
const packBitsMargin = 2

// roundWidthsKept bounds roundWidth to the rounds concurrent selections may
// have open: a new round forgets those this many rounds older, and a
// forgotten round's late request gets the width learned by then.
const roundWidthsKept = 16

// packDictate returns the slot width to dictate throughout a leader round:
// packNeed as the round's first request found it, so the round's concurrent
// queries all pack alike, and a consortium's first round is all static (0).
func (a *AggServer) packDictate(round int) int {
	a.widthMu.Lock()
	defer a.widthMu.Unlock()
	width, ok := a.roundWidth[round]
	if !ok {
		for r := range a.roundWidth {
			if r <= round-roundWidthsKept {
				delete(a.roundWidth, r)
			}
		}
		width = a.packNeed
		a.roundWidth[round] = width
	}
	return width
}

// observeNeedBits folds the largest magnitude bound a collection's parties
// advertised into the negotiation state for the next round (monotone
// maximum).
func (a *AggServer) observeNeedBits(cols []*collected) {
	need := 0
	for _, col := range cols {
		need = max(need, col.need)
	}
	if need > 0 {
		a.widthMu.Lock()
		a.packNeed = max(a.packNeed, need+packBitsMargin)
		a.widthMu.Unlock()
	}
}

// NewAggServer wires the server to its participants through the given
// transport. scheme must be the public (encrypt/add) scheme; under Paillier
// with packed parties it must carry the whole roster's packing geometry
// (ConfigurePacking with the full party count), from which the delta cache
// keys the parties' blocks. It reads opts.Parallelism (party fan-out and
// reduce concurrency).
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
	return &AggServer{cc: transport.NewCodecCaller(caller), parties: parties, scheme: scheme, parallelism: opts.Parallelism,
		roundWidth: make(map[int]int)}, nil
}

// call performs one outbound RPC from the server (see roleObs.call).
func (a *AggServer) call(ctx context.Context, node, method string, req, resp wire.Message) error {
	return a.roleObs.call(ctx, a.cc, node, method, req, resp)
}

// SetParties replaces the server's participant roster after a membership
// change, without tearing the server down. Not safe concurrently with an
// in-flight collection; callers fence membership changes with the
// consortium's run lock.
func (a *AggServer) SetParties(parties []string) error {
	if len(parties) == 0 {
		return fmt.Errorf("vfl: aggregation server needs participants")
	}
	a.parties = append([]string(nil), parties...)
	// Release the receive caches of departed links; survivors keep theirs, so
	// their next-round blocks still restore without a resend.
	a.recvCache.retain(parties)
	return nil
}

// SetObserver installs metrics and tracing on the server: aggregation-phase
// spans and cost-model gauges labelled {instance, role="aggserver"}.
func (a *AggServer) SetObserver(o *obs.Observer, instance string) {
	a.store(o)
	a.counts.Register(o.Registry(), instance, AggServerName)
	DeclareDeltaMetrics(o.Registry())
}

// Handler returns the server's RPC handler.
func (a *AggServer) Handler() transport.Handler {
	return costedHandler(func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if err := wire.Unmarshal(req, nil); err != nil {
			return nil, err
		}
		switch method {
		case MethodCollectAll, MethodFaginCollect, MethodAggregateCandidates:
			return a.serveLeader(ctx, method, req)
		case MethodAggregateFrontier:
			var r AggregateFrontierReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return a.aggregateFrontier(ctx, r)
		default:
			return nil, fmt.Errorf("%w: %s", transport.ErrUnknownMethod, method)
		}
	})
}

// serveLeader is the server's one collection pipeline towards the leader:
// candidate IDs → pull → uniform geometry → reduce → reply.
// The request picks the candidate-ID source: every party's full vector
// (CollectAll, the BASE variant), a Fagin scan over the parties' rankings
// (FaginCollect), or the leader's own list (AggregateCandidates, one
// Threshold-Algorithm round).
func (a *AggServer) serveLeader(ctx context.Context, method string, req []byte) ([]byte, error) {
	var query, round int
	var ids []int
	var stats FaginStats
	var noCache bool
	all := method == MethodCollectAll
	switch method {
	case MethodCollectAll:
		var r CollectAllReq
		if err := wire.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		query, noCache, round = r.Query, r.NoCache, r.Round
		var csp *obs.Span
		ctx, csp = a.tracer().Start(ctx, SpanCollectAll)
		defer csp.End()
	case MethodFaginCollect:
		var r FaginCollectReq
		if err := wire.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		query, noCache, round = r.Query, r.NoCache, r.Round
		var fsp *obs.Span
		ctx, fsp = a.tracer().Start(ctx, SpanFagin)
		defer fsp.End()
		var err error
		if ids, stats, err = a.faginScan(ctx, r); err != nil {
			return nil, err
		}
		fsp.SetLabelInt("rounds", int64(stats.Rounds))
		fsp.SetLabelInt("candidates", int64(stats.Candidates))
	default:
		var r AggregateCandidatesReq
		if err := wire.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		query, ids, noCache, round = r.Query, r.PseudoIDs, r.NoCache, r.Round
	}

	actx := ctx
	var asp *obs.Span
	if !all {
		actx, asp = a.tracer().Start(ctx, SpanAggregate)
		asp.SetLabelInt("candidates", int64(len(ids)))
	}
	root, err := a.collect(actx, round, query, ids, all, noCache)
	asp.End()
	if err != nil {
		return nil, err
	}

	adds := 0
	if root.factor > 1 {
		adds = len(a.parties)
	}
	out := root.blobs
	var resp wire.Message
	switch method {
	case MethodCollectAll:
		resp = &CollectAllResp{PseudoIDs: root.pids, Aggregated: out, PackFactor: root.factor,
			PackBits: root.bits, PackAdds: adds}
	case MethodFaginCollect:
		resp = &FaginCollectResp{PseudoIDs: root.pids, Aggregated: out, PackFactor: root.factor,
			Stats: stats, PackBits: root.bits, PackAdds: adds}
	default:
		resp = &AggregateCandidatesResp{Aggregated: out, PackFactor: root.factor,
			PackBits: root.bits, PackAdds: adds}
	}
	return a.reply(ctx, resp, costmodel.Raw{ItemsSent: int64(len(out)), Messages: 1})
}

// faginScan runs Fagin's algorithm over the parties' sub-rankings, pulled in
// mini-batches, until r.K pseudo IDs have been seen in every list. Returns the
// candidates in first-seen order.
func (a *AggServer) faginScan(ctx context.Context, r FaginCollectReq) ([]int, FaginStats, error) {
	var stats FaginStats
	if r.K <= 0 {
		return nil, stats, fmt.Errorf("vfl: k=%d must be positive", r.K)
	}
	if r.Batch <= 0 {
		return nil, stats, fmt.Errorf("vfl: batch=%d must be positive", r.Batch)
	}
	p := len(a.parties)
	seenCount := map[int]int{}
	var candidates []int
	fullySeen, depth := 0, 0
	for fullySeen < r.K {
		batches, err := rankingRound(ctx, a.call, a.parallelism, a.parties, r.Query, depth, r.Batch)
		if err != nil {
			return nil, stats, err
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
			a.charge(ctx, costmodel.Raw{PlainAdds: int64(len(batch))})
		}
		stats.Rounds++
		depth += r.Batch
		if exhausted {
			if fullySeen < r.K {
				return nil, stats, fmt.Errorf("vfl: lists exhausted with only %d of %d ids fully seen", fullySeen, r.K)
			}
			break
		}
	}
	stats.ScanDepth = depth
	stats.Candidates = len(candidates)
	return candidates, stats, nil
}

// collect runs one collection of the given leader round for the given pseudo
// IDs (every party's full vector when all is set) and tree-reduces it to one
// root vector. It dictates the round's width (packDictate); the advertised
// NeedBits feed the next round's negotiation; geometry must be uniform
// across parties, and a negotiated dictation that produced a mixed round is
// re-collected once under the static geometry (shared by construction, so
// one static round always restores uniformity). Under the BASE pattern (all)
// every party must also cover the same pseudo IDs in the same order.
func (a *AggServer) collect(ctx context.Context, round, query int, ids []int, all, noCache bool) (*collected, error) {
	pull := func(d int) ([]*collected, error) {
		cols := make([]*collected, len(a.parties))
		err := fanOut(ctx, a.parallelism, a.parties, func(i int, party string) error {
			col, err := a.pullParty(ctx, party, query, ids, all, d, noCache)
			cols[i] = col
			return err
		})
		return cols, err
	}
	dictate := a.packDictate(round)
	cols, err := pull(dictate)
	if err != nil {
		return nil, err
	}
	a.observeNeedBits(cols)
	uerr := uniformPacking(a.parties, cols)
	if uerr != nil && dictate > 0 {
		if cols, err = pull(0); err != nil {
			return nil, err
		}
		uerr = uniformPacking(a.parties, cols)
	}
	if uerr != nil {
		return nil, uerr
	}
	if all {
		if err := samePseudoIDs(a.parties, cols); err != nil {
			return nil, err
		}
	}
	vecs := make([][][]byte, len(cols))
	for i, col := range cols {
		vecs[i] = col.blobs
	}
	agg, err := a.reduceVectors(ctx, vecs)
	if err != nil {
		return nil, err
	}
	return &collected{pids: cols[0].pids, blobs: agg, factor: cols[0].factor,
		bits: cols[0].bits}, nil
}

// pullParty fetches one party's encrypted vector under the dictated slot
// width — every pseudo ID but the query's (EncryptAll, the BASE pattern) when
// all is set, the given candidates (EncryptCandidates) otherwise. It is the
// one receive path of the party link: the vector's length is checked and its
// delta-withheld blocks restored (restoreWithheld). A first-attempt
// ErrDeltaCacheMiss — this server evicted a block the party assumed cached —
// is charged as a cache miss, and the pull is repeated once with NoCache set,
// which forces a full resend. A reply to a NoCache request that still
// withholds blocks breaks the layout contract and is refused, not retried.
func (a *AggServer) pullParty(ctx context.Context, party string, query int, ids []int, all bool, dictate int, noCache bool) (*collected, error) {
	for attempt := 0; ; attempt++ {
		var col *collected
		var cached []int
		var err error
		if all {
			var resp EncryptAllResp
			err = a.call(ctx, party, MethodEncryptAll,
				&EncryptAllReq{Query: query, PackBits: dictate, NoCache: noCache}, &resp)
			col, cached = &collected{pids: resp.PseudoIDs, blobs: resp.Ciphers, factor: resp.PackFactor,
				bits: resp.PackBits, need: resp.NeedBits}, resp.CachedBlocks
		} else {
			var resp EncryptCandidatesResp
			err = a.call(ctx, party, MethodEncryptCandidates,
				&EncryptCandidatesReq{Query: query, PseudoIDs: ids, PackBits: dictate, NoCache: noCache}, &resp)
			col, cached = &collected{pids: ids, blobs: resp.Ciphers, factor: resp.PackFactor,
				bits: resp.PackBits, need: resp.NeedBits}, resp.CachedBlocks
		}
		if err != nil {
			return nil, fmt.Errorf("vfl: collecting from %s: %w", party, err)
		}
		if noCache && len(cached) > 0 {
			return nil, fmt.Errorf("vfl: %s withheld %d blocks from a NoCache resend", party, len(cached))
		}
		err = a.restoreWithheld(ctx, party, query, col, cached)
		if err == nil {
			return col, nil
		}
		if attempt > 0 || !errors.Is(err, ErrDeltaCacheMiss) {
			return nil, err
		}
		a.charge(ctx, costmodel.Raw{CacheMisses: 1})
		a.recordDelta(AggServerName, 0, 1)
		noCache = true
	}
}

// restoreWithheld checks a party's vector length and fills its withheld
// blocks (cached) from the party link's cache, refreshing the cache and
// charging the hits. Only a Paillier link caches; any other refuses
// withholding.
func (a *AggServer) restoreWithheld(ctx context.Context, party string, query int, col *collected, cached []int) error {
	if err := col.checkLen(party); err != nil {
		return err
	}
	pp, ok := a.scheme.(*he.Paillier)
	if !ok {
		if len(cached) > 0 {
			return fmt.Errorf("vfl: %s withheld %d blocks without delta caching", party, len(cached))
		}
		return nil
	}
	layout, err := layoutOf(pp, col.bits, col.factor)
	if err != nil {
		return fmt.Errorf("vfl: %s: %w", party, err)
	}
	hits, err := a.recvCache.forPeer(party).restore(blockKeys(party, query, layout, col.pids), col.blobs, cached)
	if hits > 0 {
		a.charge(ctx, costmodel.Raw{CacheHits: int64(hits)})
		a.recordDelta(AggServerName, hits, 0)
	}
	if err != nil {
		return fmt.Errorf("vfl: restoring delta blocks from %s: %w", party, err)
	}
	return nil
}

// uniformPacking checks that all collected vectors agree on the (pack
// factor, slot width) pair — slotwise addition is only meaningful over
// identical layouts. names labels the sources for error reporting.
func uniformPacking(names []string, cols []*collected) error {
	for i, col := range cols {
		if col.factor != cols[0].factor || col.bits != cols[0].bits {
			return fmt.Errorf("vfl: %s pack geometry (S=%d, V=%d) differs from %s's (S=%d, V=%d) — inconsistent packing configuration",
				names[i], col.factor, col.bits, names[0], cols[0].factor, cols[0].bits)
		}
	}
	return nil
}

// samePseudoIDs checks that every collected vector covers the same pseudo
// IDs in the same order (the BASE access pattern's alignment invariant).
func samePseudoIDs(names []string, cols []*collected) error {
	pids := cols[0].pids
	for i := 1; i < len(cols); i++ {
		if len(cols[i].pids) != len(pids) {
			return fmt.Errorf("vfl: %s returned %d items, want %d", names[i], len(cols[i].pids), len(pids))
		}
		for j := range pids {
			if cols[i].pids[j] != pids[j] {
				return fmt.Errorf("vfl: %s pseudo-id order mismatch at %d", names[i], j)
			}
		}
	}
	return nil
}

// reduceVectors tree-reduces the per-party ciphertext vectors element-wise
// into one: pairwise combination over the party dimension, each pair added
// by the scheme's AddVec (Paillier spreads it over its
// worker pool, Plain writes each sum vector into one slab). The reduction
// shape is fixed by party index, so results do not depend on the parallelism
// setting. It charges the performed CipherAdds — (P−1)·len, exactly what the
// serial left fold performed.
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
			sum, err := a.scheme.AddVec(ctx, vecs[lo], vecs[lo+span])
			if err != nil {
				return nil, fmt.Errorf("vfl: aggregating: %w", err)
			}
			vecs[lo] = sum
			adds += len(sum)
		}
	}
	a.charge(ctx, costmodel.Raw{CipherAdds: int64(adds)})
	return vecs[0], nil
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
	return a.reply(ctx, &AggregateFrontierResp{Cipher: agg[0]}, costmodel.Raw{ItemsSent: 1, Messages: 1})
}
