package vfl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/par"
	"vfps/internal/topk"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// Variant selects the vertical-KNN implementation.
type Variant string

const (
	// VariantBase encrypts and transmits all N partial distances per query
	// (VFPS-SM-BASE, §IV-A).
	VariantBase Variant = "base"
	// VariantFagin prunes the candidate set with Fagin's algorithm before
	// any encryption (VFPS-SM, §IV-B).
	VariantFagin Variant = "fagin"
	// VariantThreshold prunes with the Threshold Algorithm instead. TA
	// needs the *scores* at the scan frontier to compute its stopping bound
	// τ, which in the encrypted setting forces a leader round trip per scan
	// batch (aggregate-frontier decryptions). It sees fewer candidates than
	// Fagin but pays more rounds — the trade-off that §IV-B's choice of
	// Fagin avoids.
	VariantThreshold Variant = "threshold"
)

// Leader is the driver role: the label-holding participant that additionally
// owns the HE private key. It decrypts aggregated complete distances,
// determines the k nearest neighbours, and accumulates the pairwise
// participant similarities w(p,s) that feed submodular selection.
type Leader struct {
	roleObs
	cc          *transport.CodecCaller
	agg         string
	parties     []string
	scheme      he.Scheme // full scheme (with private key)
	batch       int       // Fagin mini-batch size b
	parallelism int       // 1 → serial queries and party fan-out
	instance    string    // observer instance label; the query log's tenant

	// roundMu guards rounds, prevRound and round: the number of rounds begun
	// and the query sets of the previous and the current protocol round (see
	// beginRound).
	roundMu          sync.Mutex
	rounds           int
	prevRound, round map[int]bool
}

// NewLeader wires the leader to the cluster. batch is the Fagin mini-batch
// size (paper's b); a non-positive value defaults to 32. It reads
// opts.Parallelism (1 serialises the queries and the party fan-out; vector
// decryption follows the scheme's own setting, see ConfigureScheme).
// Under Paillier the leader's scheme gets the static slot geometry for this
// roster (see ConfigurePacking), which fails when the key cannot hold one
// slot.
func NewLeader(caller transport.Caller, aggNode string, parties []string, scheme he.Scheme, batch int, opts Options) (*Leader, error) {
	if caller == nil {
		return nil, fmt.Errorf("vfl: leader needs a transport")
	}
	if len(parties) == 0 {
		return nil, fmt.Errorf("vfl: leader needs participants")
	}
	if scheme == nil {
		return nil, fmt.Errorf("vfl: leader needs the private HE scheme")
	}
	if batch <= 0 {
		batch = 32
	}
	if err := ConfigurePacking(scheme, len(parties)); err != nil {
		return nil, err
	}
	return &Leader{cc: transport.NewCodecCaller(caller), agg: aggNode, parties: parties, scheme: scheme, batch: batch,
		parallelism: opts.Parallelism}, nil
}

// call performs one outbound RPC from the leader (see roleObs.call).
func (l *Leader) call(ctx context.Context, node, method string, req, resp wire.Message) error {
	return l.roleObs.call(ctx, l.cc, node, method, req, resp)
}

// SetObserver installs metrics and tracing on the leader: per-query protocol
// spans, structured query-log events and cost-model gauges labelled
// {instance, role="leader"}. The instance doubles as the query log's tenant.
func (l *Leader) SetObserver(o *obs.Observer, instance string) {
	l.store(o)
	l.instance = instance
	l.counts.Register(o.Registry(), instance, "leader")
}

// Instance returns the observer instance label ("" when observability is
// off); selection-level query-log events reuse it as the tenant.
func (l *Leader) Instance() string { return l.instance }

// P returns the number of participants.
func (l *Leader) P() int { return len(l.parties) }

// Parties returns a copy of the leader's participant roster in index order.
func (l *Leader) Parties() []string { return append([]string(nil), l.parties...) }

// SetParties replaces the roster after a membership change, without tearing
// the leader down, and resizes the scheme's pack headroom to it (the packed
// aggregation sums one ciphertext per party). Not safe concurrently with an
// in-flight protocol run; callers fence membership changes with the
// consortium's run lock.
func (l *Leader) SetParties(parties []string) error {
	if len(parties) == 0 {
		return fmt.Errorf("vfl: leader needs participants")
	}
	if err := ConfigurePacking(l.scheme, len(parties)); err != nil {
		return err
	}
	l.parties = append([]string(nil), parties...)
	return nil
}

// QueryResult is the outcome of one vertical-KNN query.
type QueryResult struct {
	// Neighbors holds the pseudo IDs of the k nearest samples in ascending
	// complete-distance order.
	Neighbors []int
	// PartySums[p] is d^p_T, participant p's partial-distance sum over the
	// neighbour set.
	PartySums []float64
	// Fagin reports pruning statistics (zero for the base variant except
	// Candidates, which then equals N−1).
	Fagin FaginStats
}

// beginRound opens a protocol round over queries and returns its number,
// which every collection request of the round carries: the aggregation
// server dictates one slot width throughout a round, so which of the round's
// concurrent queries finishes first changes no count. Cross-round reuse is a
// delta against the previous round: a query's blocks may be withheld only
// when the previous round ran that query too, and every other query is
// collected with NoCache (a full resend that still warms the caches). A block
// that some older round left in a cache is never withheld, so what a round
// costs depends on the round before it, not on how long the consortium has
// run or which random query recurred.
func (l *Leader) beginRound(queries []int) int {
	next := make(map[int]bool, len(queries))
	for _, q := range queries {
		next[q] = true
	}
	l.roundMu.Lock()
	defer l.roundMu.Unlock()
	l.prevRound, l.round = l.round, next
	l.rounds++
	return l.rounds
}

// reusable reports whether the previous round ran query (see beginRound).
func (l *Leader) reusable(query int) bool {
	l.roundMu.Lock()
	defer l.roundMu.Unlock()
	return l.prevRound[query]
}

// runQuery executes the vertical KNN oracle for one query of the given
// round.
func (l *Leader) runQuery(ctx context.Context, round, query, k int, variant Variant) (res *QueryResult, err error) {
	if k <= 0 {
		return nil, fmt.Errorf("vfl: k=%d must be positive", k)
	}
	o := l.Observer()
	qid := obs.QueryIDFromContext(ctx)
	if o != nil && qid == "" {
		// Mint a query ID at the outermost point it is missing, so every span
		// and every downstream RPC of this query carries the same handle.
		qid = obs.NewQueryID("q")
		ctx = obs.ContextWithQueryID(ctx, qid)
	}
	ctx, qsp := l.tracer().Start(ctx, SpanQuery)
	qsp.SetLabel("variant", string(variant))
	qsp.SetLabelInt("k", int64(k))
	if qid != "" {
		qsp.SetLabel("qid", qid)
	}
	defer qsp.End()
	// Per-query accounting: phase latencies accumulate into one structured
	// query-log event emitted on every exit path. All of it is gated on the
	// observer so the bare protocol path stays allocation-free.
	var phases []obs.PhaseSecs
	phase := func(name string, since time.Time) {
		if o != nil {
			phases = append(phases, obs.PhaseSecs{Name: name, Seconds: time.Since(since).Seconds()})
		}
	}
	if o != nil {
		qstart := time.Now()
		defer func() {
			ev := obs.QueryEvent{
				Kind:    "query",
				ID:      qid,
				Tenant:  l.instance,
				Seconds: time.Since(qstart).Seconds(),
				Phases:  phases,
				Attrs:   map[string]any{"query": query, "k": k, "variant": string(variant)},
			}
			if sc, ok := qsp.Context(); ok {
				ev.Trace = sc.Trace.String()
			}
			if res != nil {
				ev.Attrs["candidates"] = res.Fagin.Candidates
				ev.Attrs["rounds"] = res.Fagin.Rounds
			}
			if err != nil {
				ev.Attrs["error"] = err.Error()
			}
			o.Log().Record(ev)
		}()
	}
	var pids []int
	var col *collected
	var dist []float64
	var stats FaginStats
	collectStart := time.Now()
	var cerr error
	switch variant {
	case VariantThreshold:
		pids, dist, stats, cerr = l.thresholdScan(ctx, round, query, k)
	case VariantBase, VariantFagin:
		if col, stats, cerr = l.collect(ctx, round, query, k, variant, nil); cerr == nil {
			pids = col.pids
		}
	default:
		return nil, fmt.Errorf("vfl: unknown variant %q", variant)
	}
	if cerr != nil {
		return nil, cerr
	}
	phase("collect", collectStart)
	if k > len(pids) {
		return nil, fmt.Errorf("vfl: k=%d exceeds %d candidates", k, len(pids))
	}

	// Decrypt complete distances for the candidates and take the k nearest
	// (the Threshold variant arrives pre-decrypted).
	if col != nil {
		decStart := time.Now()
		dctx, dsp := l.tracer().Start(ctx, SpanDecrypt)
		dsp.SetLabelInt("n", int64(len(col.blobs)))
		var derr error
		dist, derr = l.decryptCollected(dctx, col)
		dsp.End()
		phase("decrypt", decStart)
		if derr != nil {
			return nil, fmt.Errorf("vfl: leader decrypting: %w", derr)
		}
		l.charge(ctx, costmodel.Raw{Decryptions: int64(len(col.blobs))})
	}
	return l.finishQuery(ctx, query, k, pids, dist, stats, phase)
}

// collected is one received ciphertext vector with its layout metadata — a
// party's vector on the aggregation side, the aggregate on the leader. A
// party's vector is as received until pullParty has checked its length and
// restored its delta-withheld blocks, complete after.
type collected struct {
	pids   []int
	blobs  [][]byte
	factor int // PackFactor as sent; checkLen normalises 0 to 1
	bits   int // adaptive slot width; 0 = static geometry
	adds   int // advertised aggregation depth (PackAdds, leader side)
	need   int // advertised NeedBits (aggregation side)
}

// checkLen normalises the pack factor and checks that the vector holds one
// ciphertext per factor-wide block of its pseudo IDs. peer names the sender;
// a party's vector counts as the one-party aggregate it is in the reduce tree.
func (c *collected) checkLen(peer string) error {
	c.factor = normFactor(c.factor)
	if want := packedLen(len(c.pids), c.factor); len(c.blobs) != want {
		return fmt.Errorf("vfl: %s: got %d aggregates for %d candidates, want %d", peer, len(c.blobs), len(c.pids), want)
	}
	return nil
}

// collect runs one collection round trip of the given protocol round against
// the aggregation server and returns the length-checked aggregate: the whole
// collection of the BASE or Fagin variant, or, for the Threshold variant, one
// random-access round over ids. Under Paillier, NoCache carries beginRound's
// rule to the party links: a query the previous round did not run is resent
// in full.
func (l *Leader) collect(ctx context.Context, round, query, k int, variant Variant, ids []int) (*collected, FaginStats, error) {
	_, paillier := l.scheme.(*he.Paillier)
	noCache := paillier && !l.reusable(query)
	var col *collected
	var stats FaginStats
	var err error
	switch variant {
	case VariantBase:
		var resp CollectAllResp
		err = l.call(ctx, l.agg, MethodCollectAll, &CollectAllReq{Query: query, NoCache: noCache, Round: round}, &resp)
		n := len(resp.PseudoIDs)
		stats = FaginStats{Candidates: n, Rounds: 1, ScanDepth: n}
		col = &collected{pids: resp.PseudoIDs, blobs: resp.Aggregated, factor: resp.PackFactor,
			bits: resp.PackBits, adds: resp.PackAdds}
	case VariantFagin:
		var resp FaginCollectResp
		err = l.call(ctx, l.agg, MethodFaginCollect,
			&FaginCollectReq{Query: query, K: k, Batch: l.batch, NoCache: noCache, Round: round}, &resp)
		stats = resp.Stats
		col = &collected{pids: resp.PseudoIDs, blobs: resp.Aggregated, factor: resp.PackFactor,
			bits: resp.PackBits, adds: resp.PackAdds}
	default:
		var resp AggregateCandidatesResp
		err = l.call(ctx, l.agg, MethodAggregateCandidates,
			&AggregateCandidatesReq{Query: query, PseudoIDs: ids, NoCache: noCache, Round: round}, &resp)
		col = &collected{pids: ids, blobs: resp.Aggregated, factor: resp.PackFactor,
			bits: resp.PackBits, adds: resp.PackAdds}
	}
	if err != nil {
		return nil, stats, fmt.Errorf("vfl: collecting from %s: %w", l.agg, err)
	}
	return col, stats, col.checkLen(l.agg)
}

// decryptCollected recovers the aggregate distances of one collection round.
// factor 1 is the one-value-per-ciphertext layout of the non-Paillier schemes
// (and of a Paillier key that holds a single slot); factor > 1 means the
// parties slot-packed, so every ciphertext is a per-slot sum over all
// parties. A static layout (bits == 0) must match the leader's own
// EnablePacking geometry; an adaptive layout is validated by rebuilding the
// (bits, adds) geometry through PackerFor, whose typed fixed.ErrPackAdds /
// fixed.ErrPackShape errors are the hard backstop against a peer advertising
// an aggregation depth the key cannot honour. The decoded values are
// bit-identical to a scalar decryption — packing changes the carrier layout,
// not the fixed-point arithmetic — so selection results do not depend on the
// layout.
func (l *Leader) decryptCollected(ctx context.Context, col *collected) ([]float64, error) {
	if col.factor == 1 {
		return l.scheme.DecryptVec(ctx, col.blobs)
	}
	pp, ok := l.scheme.(*he.Paillier)
	if !ok {
		return nil, fmt.Errorf("vfl: packed aggregates under non-paillier scheme %q", l.scheme.Name())
	}
	count := len(col.pids)
	if col.bits == 0 {
		if lf := pp.PackFactor(); lf != col.factor {
			return nil, fmt.Errorf("vfl: aggregates packed %d-wide but the leader's geometry is %d-wide — inconsistent packing configuration", col.factor, lf)
		}
		return pp.DecryptPacked(ctx, col.blobs, count, len(l.parties))
	}
	packer, err := pp.PackerFor(uint(col.bits), col.adds)
	if err != nil {
		return nil, fmt.Errorf("vfl: rejecting advertised pack geometry: %w", err)
	}
	if packer.Slots() != col.factor {
		return nil, fmt.Errorf("vfl: advertised pack factor %d does not match geometry (V=%d, adds=%d → S=%d) — inconsistent packing configuration",
			col.factor, col.bits, col.adds, packer.Slots())
	}
	return pp.DecryptPackedWith(ctx, col.blobs, count, packer, col.adds)
}

// finishQuery ranks the decrypted candidate distances by (distance, pseudo
// ID) — the order of every party's sub-ranking, so BASE, Fagin and TA pick
// the same neighbours on tied distances whatever order their candidates
// arrived in — and gathers the parties' plaintext partial sums over the
// neighbour set (Step ⑦), fanning the NeighborSum requests out concurrently.
// NeighborSum is a query's last call to a party, which then retires the
// query's distances. phase records the neighbour-sum latency into the
// caller's query-log event.
func (l *Leader) finishQuery(ctx context.Context, query, k int, pids []int, dist []float64, stats FaginStats, phase func(string, time.Time)) (*QueryResult, error) {
	neighbors := make([]int, k)
	for i, it := range topk.KSmallest(dist, pids, k) {
		neighbors[i] = it.ID
	}

	sumStart := time.Now()
	nctx, nsp := l.tracer().Start(ctx, SpanNeighborSums)
	ctx = nctx
	sums := make([]float64, len(l.parties))
	err := fanOut(ctx, l.parallelism, l.parties, func(pi int, party string) error {
		var resp NeighborSumResp
		if err := l.call(ctx, party, MethodNeighborSum,
			&NeighborSumReq{Query: query, PseudoIDs: neighbors}, &resp); err != nil {
			return fmt.Errorf("vfl: neighbour sum from %s: %w", party, err)
		}
		sums[pi] = resp.Sum
		return nil
	})
	nsp.End()
	phase("sums", sumStart)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Neighbors: neighbors, PartySums: sums, Fagin: stats}, nil
}

// fanOut runs fn once per node of a party roster through par.For: serially
// when parallelism is 1 and otherwise on one goroutine per node. No worker
// bound: the calls wait on peers, not on local cores. Results land in
// caller-indexed slots, so ordering is independent of completion order, and
// the lowest-indexed node's error wins, matching the serial loop.
func fanOut(ctx context.Context, parallelism int, nodes []string, fn func(i int, node string) error) error {
	workers := len(nodes)
	if parallelism == 1 {
		workers = 1
	}
	return par.For(ctx, len(nodes), workers, func(i int) error { return fn(i, nodes[i]) })
}

// errRankingOverrun marks a ranking batch longer than the Count its request
// asked for. Callers size a scan round by the batch they requested; a peer
// answering with more would silently turn a pruned scan into BASE-sized work.
var errRankingOverrun = errors.New("vfl: ranking batch longer than requested")

// rankingRound pulls the next mini-batch of every party's sub-ranking — count
// pseudo IDs from rank depth on — with all parties in flight concurrently.
// call is the caller's charging RPC, so each role books its own bytes. The
// batches come back indexed in party order: merging them in that order
// reproduces the serial scan's first-seen order. A party answering with more
// than count IDs is refused with errRankingOverrun.
func rankingRound(ctx context.Context, call func(ctx context.Context, node, method string, req, resp wire.Message) error,
	parallelism int, parties []string, query, depth, count int) ([][]int, error) {
	batches := make([][]int, len(parties))
	err := fanOut(ctx, parallelism, parties, func(pi int, party string) error {
		var resp RankingBatchResp
		if err := call(ctx, party, MethodRankingBatch,
			&RankingBatchReq{Query: query, Offset: depth, Count: count}, &resp); err != nil {
			return fmt.Errorf("vfl: pulling ranking from %s: %w", party, err)
		}
		if len(resp.PseudoIDs) > count {
			return fmt.Errorf("%w: %s returned %d ids for a batch of %d", errRankingOverrun, party, len(resp.PseudoIDs), count)
		}
		batches[pi] = resp.PseudoIDs
		return nil
	})
	return batches, err
}

// thresholdScan drives the leader-assisted Threshold Algorithm for one
// query: synchronized sorted access in batches, aggregate-and-decrypt for
// every newly seen candidate, and an encrypted frontier bound τ per batch.
// Returns the candidate pseudo IDs with their decrypted complete distances.
func (l *Leader) thresholdScan(ctx context.Context, round, query, k int) ([]int, []float64, FaginStats, error) {
	ctx, tsp := l.tracer().Start(ctx, SpanTAScan)
	defer tsp.End()
	var stats FaginStats
	seen := make(map[int]bool)
	var pids []int
	var dist []float64
	depth := 0
	for {
		// Sorted access: the next batch of every party's ranking.
		batches, err := rankingRound(ctx, l.call, l.parallelism, l.parties, query, depth, l.batch)
		if err != nil {
			return nil, nil, stats, err
		}
		exhausted := true
		var newIDs []int
		for _, batch := range batches {
			if len(batch) > 0 {
				exhausted = false
			}
			for _, pid := range batch {
				if !seen[pid] {
					seen[pid] = true
					newIDs = append(newIDs, pid)
				}
			}
		}
		stats.Rounds++
		depth += l.batch

		// Random access: aggregated ciphertexts for the new candidates.
		if len(newIDs) > 0 {
			col, _, err := l.collect(ctx, round, query, k, VariantThreshold, newIDs)
			if err != nil {
				return nil, nil, stats, fmt.Errorf("vfl: TA aggregate round: %w", err)
			}
			vs, err := l.decryptCollected(ctx, col)
			if err != nil {
				return nil, nil, stats, fmt.Errorf("vfl: TA decrypting candidate: %w", err)
			}
			pids = append(pids, newIDs...)
			dist = append(dist, vs...)
			l.charge(ctx, costmodel.Raw{Decryptions: int64(len(col.blobs))})
		}
		if exhausted {
			break
		}

		// Threshold: τ bounds every unseen instance's complete distance from
		// below, because unseen instances rank deeper than the frontier in
		// every list.
		var fresp AggregateFrontierResp
		if err := l.call(ctx, l.agg, MethodAggregateFrontier,
			&AggregateFrontierReq{Query: query, Rank: depth - 1}, &fresp); err != nil {
			return nil, nil, stats, err
		}
		tau, err := l.scheme.Decrypt(fresp.Cipher)
		if err != nil {
			return nil, nil, stats, fmt.Errorf("vfl: TA decrypting threshold: %w", err)
		}
		l.charge(ctx, costmodel.Raw{Decryptions: 1})
		// An unseen instance's distance can equal τ, and it may then order
		// before a seen one on pseudo ID, so only a k-th distance strictly
		// below τ settles the top k.
		if top := topk.KSmallest(dist, pids, k); len(top) == k && top[k-1].Score < tau {
			break
		}
	}
	stats.ScanDepth = depth
	stats.Candidates = len(pids)
	if len(pids) < k {
		return nil, nil, stats, fmt.Errorf("vfl: TA terminated with %d candidates for k=%d", len(pids), k)
	}
	return pids, dist, stats, nil
}

// SimilarityReport is the output of a full selection-phase protocol run.
type SimilarityReport struct {
	// W[p][s] is the average similarity w(p,s) over the query set, the input
	// to submodular maximization. W is symmetric with unit diagonal.
	W [][]float64
	// Queries is the number of query samples processed.
	Queries int
	// AvgCandidates is the mean per-query number of instances whose partial
	// distances were encrypted and communicated — the Fig. 9 metric.
	AvgCandidates float64
	// TotalRounds accumulates Fagin mini-batch rounds across queries.
	TotalRounds int
}

// Similarities runs the KNN oracle over the query set as one protocol round
// and averages the pairwise participant similarity matrix of §III-A:
//
//	w_q(p1,p2) = (d_T − |d^p1_T − d^p2_T|) / d_T,   w = mean over queries.
//
// The queries are independent, so the resolved Parallelism of them run in
// flight (1 runs them serially), capped at the parties' guaranteed
// query-cache entries: every in-flight query keeps its N-row distance entry
// at any N. Query results are folded in query order, so the report is
// bit-identical at every parallelism; the first failing query's error is
// returned.
func (l *Leader) Similarities(ctx context.Context, queries []int, k int, variant Variant) (*SimilarityReport, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("vfl: empty query set")
	}
	round := l.beginRound(queries)
	results := make([]*QueryResult, len(queries))
	err := par.For(ctx, len(queries), min(par.Normalize(l.parallelism), cacheMinEntries), func(qi int) error {
		res, err := l.runQuery(ctx, round, queries[qi], k, variant)
		if err != nil {
			return fmt.Errorf("vfl: query %d: %w", queries[qi], err)
		}
		results[qi] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := len(l.parties)
	w := make([][]float64, p)
	for i := range w {
		w[i] = make([]float64, p)
	}
	rep := &SimilarityReport{W: w, Queries: len(results)}
	cands := 0
	for _, res := range results {
		cands += res.Fagin.Candidates
		rep.TotalRounds += res.Fagin.Rounds
		var dT float64
		for _, s := range res.PartySums {
			dT += s
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if dT <= 0 {
					// All neighbours coincide with the query on every party:
					// no divergence information, treat parties as identical.
					w[i][j]++
				} else {
					w[i][j] += (dT - math.Abs(res.PartySums[i]-res.PartySums[j])) / dT
				}
			}
		}
	}
	l.charge(ctx, costmodel.Raw{PlainAdds: int64(len(queries) * p * p)})
	for i := range w {
		for j := range w[i] {
			w[i][j] /= float64(rep.Queries)
		}
		w[i][i] = 1
	}
	rep.AvgCandidates = float64(cands) / float64(rep.Queries)
	return rep, nil
}
