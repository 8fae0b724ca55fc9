package vfl

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"vfps/internal/costmodel"
	"vfps/internal/fixed"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/obs"
	"vfps/internal/topk"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// PartyName returns the canonical node name of participant p.
func PartyName(p int) string { return fmt.Sprintf("party/%d", p) }

// Participant is one data-holding organisation: it owns a vertical slice of
// the feature space for all N instances and serves partial-distance queries.
// All participants share the shuffle seed, so they agree on the pseudo-ID
// permutation without the servers ever learning it (identity security,
// §IV-C).
type Participant struct {
	roleObs
	index  int
	x      *mat.Matrix // N × F_p local features
	scheme he.Scheme

	perm []int // original id -> pseudo id
	inv  []int // pseudo id -> original id

	// deltaSent caches the Paillier ciphertext blocks sent to the aggregator,
	// keyed by block identity and slot layout; a hit reuses the cached bytes
	// (skipping re-encryption) and withholds the block from the wire. Sound
	// because partial distances are a pure function of (query, pseudo ID)
	// over the static dataset.
	deltaSent deltaCache

	mu         sync.Mutex
	cache      map[int]*queryCache
	cacheOrder []int       // FIFO eviction order
	slabs      [][]float64 // N-float distance vectors free for the next query
}

// A query-cache entry lives as long as its query: NeighborSum, the last call
// a query makes to a party in every variant, retires it, and once no handler
// holds it its N-float distance slab goes to a free list of at most
// cacheMinEntries slabs that the next query's distance pass writes into.
//
// The byte budget is the backstop for queries that never reach NeighborSum
// (a cancelled or failed selection). It bounds entries by bytes, not count:
// an entry holds N distances plus its sorted ranking prefix, so a fixed entry
// count that is harmless at N = 200 retains tens of megabytes at N = 10⁵.
// Small consortiums keep up to 32 entries; large ones keep at least
// cacheMinEntries, which is also the most queries the leader keeps in flight
// (Leader.Similarities), so every in-flight query keeps its entry at any N.
// Eviction is first in, first out, so an unfinished query that 4 newer
// queries lap loses its entry and is recomputed: correct, but it costs
// DistanceFlops.
const (
	cacheBudgetBytes = 8 << 20
	cacheMinEntries  = 4
	cacheMaxEntries  = 32
)

// queryCache holds the per-query artefacts that several protocol steps
// reuse: partial distances by original id and the ascending sub-ranking of
// pseudo IDs, sorted only as far as the protocol has read it.
type queryCache struct {
	query int
	dist  []float64 // by original id; the query's own slot is 0 and never ranked
	// refs counts the handlers reading the entry; guarded by the
	// participant's mu. The slab is recycled only at zero.
	refs int

	mu sync.Mutex
	// rank orders every row but the query by (distance, pseudo id) straight
	// from dist. rank.Sorted is final — exactly the first entries of the full
	// sort — and only ever appended to, so slices of it stay valid after mu
	// is released.
	rank topk.Ranking
	// bytes is what the entry holds, 8 B per distance plus 16 B per slot of
	// the sorted prefix; the participant's eviction reads it without mu.
	bytes atomic.Int64
}

// rankedMinGrowth is the least the sorted prefix grows by. Fagin reads the
// ranking 32 rows at a time, and each growth pays one O(N) pass over the
// distances; doubling from this floor keeps a scan to depth d at O(log d)
// growths.
const rankedMinGrowth = 2048

// ranked returns the first upto entries (fewer when the list is shorter) of
// the ascending sub-ranking. When the request reaches past the sorted prefix
// the prefix is extended by a pass over the distances that keeps only the
// rows ordering next and sorts those: a query scanned to depth d costs
// O(N + d log d) instead of the O(N log N) of sorting rows Fagin never reads,
// and every entry returned is identical to the full sort's because the order
// is strict.
func (qc *queryCache) ranked(upto int) []topk.Item {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	upto = min(upto, qc.rank.Len())
	if sorted := len(qc.rank.Sorted); upto > sorted {
		qc.rank.Extend(max(upto, 2*sorted, rankedMinGrowth))
		qc.bytes.Store(entryBytes(len(qc.dist), cap(qc.rank.Sorted)))
	}
	return qc.rank.Sorted[:upto]
}

// entryBytes is what a query-cache entry over n rows holds with a sorted
// prefix of capacity sorted.
func entryBytes(n, sorted int) int64 {
	return int64(8*n + 16*sorted)
}

// NewParticipant constructs participant p over its local features.
// shuffleSeed must be identical across all participants of a consortium.
// The scheme's own settings (ConfigureScheme) bound its encryption workers.
func NewParticipant(index int, x *mat.Matrix, scheme he.Scheme, shuffleSeed int64) (*Participant, error) {
	if x == nil || x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("vfl: participant %d has no data", index)
	}
	if scheme == nil {
		return nil, fmt.Errorf("vfl: participant %d has no HE scheme", index)
	}
	n := x.Rows
	perm := rand.New(rand.NewSource(shuffleSeed)).Perm(n)
	inv := make([]int, n)
	for orig, pid := range perm {
		inv[pid] = orig
	}
	return &Participant{
		index:  index,
		x:      x,
		scheme: scheme,
		perm:   perm,
		inv:    inv,
		cache:  make(map[int]*queryCache),
	}, nil
}

// N returns the instance count.
func (p *Participant) N() int { return p.x.Rows }

// Features returns the local feature dimension F_p.
func (p *Participant) Features() int { return p.x.Cols }

// SetObserver installs metrics and tracing on the participant: distance and
// encryption spans plus cost-model gauges labelled {instance, role="party/i"}.
func (p *Participant) SetObserver(o *obs.Observer, instance string) {
	p.store(o)
	p.counts.Register(o.Registry(), instance, PartyName(p.index))
}

// partEnc is the outcome of one encryption sweep: the wire vector (delta-
// withheld blocks as empty placeholders), the pack factor, the adaptive slot
// width actually used (0 = static geometry), the advertised magnitude bound
// for the next negotiation round, the withheld block indices, and how many
// ciphertexts were actually produced (cache hits skip the exponentiation).
type partEnc struct {
	ciphers   [][]byte
	factor    int
	packBits  int
	needBits  int
	cached    []int
	encrypted int
}

// encryptItems protects a vector of item-keyed protocol values. A
// pack-enabled Paillier scheme slot-packs values per ciphertext — under the static EnablePacking
// geometry, or the dictated packBits-wide adaptive geometry when every local
// value fits it (otherwise it falls back to static and lets the advertised
// NeedBits lift the next round's negotiation); everything else goes through
// the scheme's own vector path (EncryptVec). Under Paillier, blocks whose
// bytes were already sent for this (query, slot layout, pseudo-ID segment)
// are withheld from the wire and reported in cached; noCache forces a full
// resend after a receiver-side eviction. ctx is polled per chunk so a dead
// client stops the encryption sweep early.
func (p *Participant) encryptItems(ctx context.Context, query int, pids []int, vals []float64, packBits int, noCache bool) (partEnc, error) {
	ctx, esp := p.tracer().Start(ctx, SpanEncrypt)
	esp.SetLabelInt("n", int64(len(pids)))
	defer esp.End()
	var packer *fixed.Packer
	var usedBits, needBits int
	pp, isPaillier := p.scheme.(*he.Paillier)
	if isPaillier && pp.PackFactor() > 1 {
		nb, err := pp.NeededPackBits(vals)
		if err != nil {
			return partEnc{}, err
		}
		needBits = int(nb)
		if packBits > 0 && needBits <= packBits {
			usedBits = packBits
		}
		if packer, err = encodingPacker(pp, usedBits); err != nil {
			return partEnc{}, err
		}
	}
	factor := 1
	if packer != nil {
		factor = packer.Slots()
		esp.SetLabelInt("pack_factor", int64(factor))
	}

	blocks := packedLen(len(vals), factor)
	var keys []string
	if isPaillier {
		layout, err := layoutOf(pp, usedBits, factor)
		if err != nil {
			return partEnc{}, err
		}
		keys = blockKeys("agg", query, layout, pids)
	}
	blobs := make([][]byte, blocks)
	var cachedIdx, encBlocks []int
	var encVals []float64
	for b := 0; b < blocks; b++ {
		if keys != nil && !noCache {
			if blob, ok := p.deltaSent.get(keys[b]); ok {
				// Reuse the cached ciphertext bytes: encryption is randomized,
				// so re-encrypting would produce different bytes the receiver
				// cannot match. The reuse also skips the exponentiation.
				blobs[b] = blob
				cachedIdx = append(cachedIdx, b)
				continue
			}
		}
		encBlocks = append(encBlocks, b)
		lo := b * factor
		encVals = append(encVals, vals[lo:min(lo+factor, len(vals))]...)
	}
	if len(encBlocks) > 0 {
		var cs [][]byte
		var err error
		if packer != nil {
			// Concatenating uncached blocks keeps packing valid: only the
			// globally last block can be partial, and it is encrypted last.
			cs, err = pp.EncryptPackedWith(ctx, packer, encVals)
		} else {
			cs, err = p.scheme.EncryptVec(ctx, encVals)
		}
		if err != nil {
			return partEnc{}, err
		}
		if len(cs) != len(encBlocks) {
			return partEnc{}, fmt.Errorf("vfl: party %d packed %d blocks, want %d", p.index, len(cs), len(encBlocks))
		}
		for i, b := range encBlocks {
			blobs[b] = cs[i]
			if keys != nil {
				p.deltaSent.put(keys[b], cs[i])
			}
		}
		// The burst just drained up to len(cs) pooled randomizers; hint the
		// pool to refill through the idle gap while the leader aggregates, so
		// the next round's encryptions hit the precomputed fast path again.
		p.scheme.RefillHint(len(cs))
	}
	out := blobs
	if len(cachedIdx) > 0 {
		// The wire copy carries empty placeholders for withheld blocks; blobs
		// keeps the full vector so the cache refresh above stays intact.
		out = make([][]byte, blocks)
		copy(out, blobs)
		for _, b := range cachedIdx {
			out[b] = nil
		}
	}
	return partEnc{
		ciphers:   out,
		factor:    factor,
		packBits:  usedBits,
		needBits:  needBits,
		cached:    cachedIdx,
		encrypted: len(encBlocks),
	}, nil
}

// distances returns the cached per-query artefacts, computing them on first
// use, with a reference taken: the caller must release it once it has read
// what it needs. The query itself is excluded from the ranking (a KNN query
// drawn from the dataset is its own 0-distance neighbour).
func (p *Participant) distances(ctx context.Context, query int) (*queryCache, error) {
	if query < 0 || query >= p.N() {
		return nil, fmt.Errorf("vfl: query %d out of range [0,%d)", query, p.N())
	}
	n := p.N()
	p.mu.Lock()
	if qc, ok := p.cache[query]; ok {
		qc.refs++
		p.mu.Unlock()
		return qc, nil
	}
	var dist []float64
	if k := len(p.slabs); k > 0 {
		dist, p.slabs = p.slabs[k-1], p.slabs[:k-1]
	} else {
		dist = make([]float64, n)
	}
	p.mu.Unlock()
	// Compute outside the lock so concurrent queries for different samples
	// proceed in parallel; a rare duplicate computation is harmless.
	_, dsp := p.tracer().Start(ctx, SpanDistances)
	dsp.SetLabelInt("party", int64(p.index))
	defer dsp.End()
	qRow := p.x.Row(query)
	for i := 0; i < n; i++ {
		dist[i] = mat.SqDist(qRow, p.x.Row(i))
	}
	dist[query] = 0 // a recycled slab holds another query's distances
	p.charge(ctx, costmodel.Raw{DistanceFlops: int64((n - 1) * p.x.Cols)})
	// Ranking by (distance, pseudo id) gives all parties and the servers a
	// consistent order without leaking original ids.
	qc := &queryCache{query: query, dist: dist, rank: topk.Ranking{Scores: dist, IDs: p.perm, Skip: query}}
	qc.bytes.Store(entryBytes(n, 0))
	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.cache[query]; ok {
		p.recycleLocked(qc) // another goroutine won the race
		existing.refs++
		return existing, nil
	}
	qc.refs = 1
	p.cache[query] = qc
	p.cacheOrder = append(p.cacheOrder, query)
	p.trimCacheLocked()
	return qc, nil
}

// release drops a handler's reference on qc and trims the cache, which the
// handler may have grown by extending the ranking. retire also drops the
// entry from the cache: its query is over, and a later request for it
// recomputes. An entry out of the cache gives its slab back at its last
// release.
func (p *Participant) release(qc *queryCache, retire bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	qc.refs--
	if retire && p.cache[qc.query] == qc {
		delete(p.cache, qc.query)
		p.cacheOrder = slices.DeleteFunc(p.cacheOrder, func(q int) bool { return q == qc.query })
	}
	p.trimCacheLocked()
	p.recycleLocked(qc)
}

// recycleLocked moves the slab of an entry that is out of the cache and
// unreferenced to the free list, keeping at most cacheMinEntries slabs; it
// runs at most once per entry. p.mu must be held.
func (p *Participant) recycleLocked(qc *queryCache) {
	if qc.refs > 0 || qc.dist == nil || p.cache[qc.query] == qc {
		return
	}
	if len(p.slabs) < cacheMinEntries {
		p.slabs = append(p.slabs, qc.dist)
	}
	qc.dist = nil
}

// trimCacheLocked evicts oldest-first until at most cacheMaxEntries remain
// and the entries hold at most cacheBudgetBytes, keeping cacheMinEntries
// whatever they hold. p.mu must be held.
func (p *Participant) trimCacheLocked() {
	var total int64
	for _, q := range p.cacheOrder {
		total += p.cache[q].bytes.Load()
	}
	for len(p.cacheOrder) > cacheMaxEntries || len(p.cacheOrder) > cacheMinEntries && total > cacheBudgetBytes {
		q := p.cacheOrder[0]
		oldest := p.cache[q]
		total -= oldest.bytes.Load()
		delete(p.cache, q)
		p.cacheOrder = p.cacheOrder[1:]
		p.recycleLocked(oldest)
	}
}

// Handler returns the participant's RPC handler.
func (p *Participant) Handler() transport.Handler {
	return costedHandler(func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if err := wire.Unmarshal(req, nil); err != nil {
			return nil, err
		}
		switch method {
		case MethodRankingBatch:
			var r RankingBatchReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.rankingBatch(ctx, r)
		case MethodEncryptAll:
			var r EncryptAllReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.encrypt(ctx, EncryptCandidatesReq{Query: r.Query, PackBits: r.PackBits,
				NoCache: r.NoCache}, true)
		case MethodEncryptCandidates:
			var r EncryptCandidatesReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.encrypt(ctx, r, false)
		case MethodEncryptRankScore:
			var r EncryptRankScoreReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.encryptRankScore(ctx, r)
		case MethodNeighborSum:
			var r NeighborSumReq
			if err := wire.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.neighborSum(ctx, r)
		default:
			return nil, fmt.Errorf("%w: %s", transport.ErrUnknownMethod, method)
		}
	})
}

func (p *Participant) rankingBatch(ctx context.Context, r RankingBatchReq) ([]byte, error) {
	if r.Count <= 0 {
		return nil, fmt.Errorf("vfl: ranking batch count %d must be positive", r.Count)
	}
	if r.Offset < 0 || r.Offset > p.N()-1 {
		return nil, fmt.Errorf("vfl: ranking offset %d out of range", r.Offset)
	}
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	// Clamp before adding: Offset+Count overflows for a hostile Count.
	count := min(r.Count, qc.rank.Len()-r.Offset)
	ranked := qc.ranked(r.Offset + count)[r.Offset:]
	batch := make([]int, len(ranked))
	for i, it := range ranked {
		batch[i] = it.ID
	}
	p.release(qc, false)
	return p.reply(ctx, &RankingBatchResp{PseudoIDs: batch}, costmodel.Raw{ItemsSent: int64(len(batch)), Messages: 1})
}

// encrypt serves both collection pulls: the encrypted partial distances of
// every pseudo ID but the query's own (EncryptAll, the BASE pattern, all set)
// or of the requested candidates (EncryptCandidates). r carries the query,
// the candidates and the payload knobs of either request.
func (p *Participant) encrypt(ctx context.Context, r EncryptCandidatesReq, all bool) ([]byte, error) {
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	n := p.N()
	queryPid := p.perm[r.Query]
	pids := r.PseudoIDs
	if all {
		pids = make([]int, 0, n-1)
		for pid := 0; pid < n; pid++ {
			if pid != queryPid {
				pids = append(pids, pid)
			}
		}
	}
	vals := make([]float64, len(pids))
	for i, pid := range pids {
		if pid < 0 || pid >= n || pid == queryPid {
			p.release(qc, false)
			return nil, fmt.Errorf("vfl: candidate pseudo id %d invalid", pid)
		}
		vals[i] = qc.dist[p.inv[pid]]
	}
	p.release(qc, false)
	enc, err := p.encryptItems(ctx, r.Query, pids, vals, r.PackBits, r.NoCache)
	if err != nil {
		return nil, fmt.Errorf("vfl: party %d encrypting: %w", p.index, err)
	}
	var resp wire.Message
	if all {
		resp = &EncryptAllResp{PseudoIDs: pids, Ciphers: enc.ciphers, PackFactor: enc.factor,
			PackBits: enc.packBits, NeedBits: enc.needBits, CachedBlocks: enc.cached}
	} else {
		resp = &EncryptCandidatesResp{Ciphers: enc.ciphers, PackFactor: enc.factor,
			PackBits: enc.packBits, NeedBits: enc.needBits, CachedBlocks: enc.cached}
	}
	// Counters reflect actual work and wire traffic: packing drops the
	// exponentiation and ciphertext counts by the pack factor, delta hits skip
	// both the exponentiation and the wire, and reply charges the bytes as
	// actually encoded.
	return p.reply(ctx, resp, costmodel.Raw{
		Encryptions: int64(enc.encrypted),
		ItemsSent:   int64(len(enc.ciphers) - len(enc.cached)),
		Messages:    1,
	})
}

func (p *Participant) encryptRankScore(ctx context.Context, r EncryptRankScoreReq) ([]byte, error) {
	if r.Rank < 0 {
		return nil, fmt.Errorf("vfl: rank %d must be non-negative", r.Rank)
	}
	if p.N() == 1 {
		return nil, fmt.Errorf("vfl: rank %d of an empty ranking", r.Rank)
	}
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	// Clamp before adding one, for the same reason as in rankingBatch.
	rank := min(r.Rank, qc.rank.Len()-1)
	score := qc.ranked(rank + 1)[rank].Score
	p.release(qc, false)
	c, err := p.scheme.Encrypt(score)
	if err != nil {
		return nil, fmt.Errorf("vfl: party %d encrypting frontier: %w", p.index, err)
	}
	p.scheme.RefillHint(1) // TA rounds repeat; keep the pool topped up between them
	return p.reply(ctx, &EncryptRankScoreResp{Cipher: c}, costmodel.Raw{Encryptions: 1, ItemsSent: 1, Messages: 1})
}

func (p *Participant) neighborSum(ctx context.Context, r NeighborSumReq) ([]byte, error) {
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	// NeighborSum is the query's last call in every variant: whatever the
	// outcome, the entry is retired.
	defer p.release(qc, true)
	queryPid := p.perm[r.Query]
	var sum float64
	for _, pid := range r.PseudoIDs {
		if pid < 0 || pid >= p.N() || pid == queryPid {
			return nil, fmt.Errorf("vfl: neighbour pseudo id %d invalid", pid)
		}
		sum += qc.dist[p.inv[pid]]
	}
	return p.reply(ctx, &NeighborSumResp{Sum: sum}, costmodel.Raw{PlainAdds: int64(len(r.PseudoIDs)), ItemsSent: 1, Messages: 1})
}
