package vfl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

func testPartition(t *testing.T, name string, rows, parties int) (*dataset.Dataset, *dataset.Partition) {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(rows)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataset.VerticalSplit(d, parties, 42)
	if err != nil {
		t.Fatal(err)
	}
	return d, pt
}

func newCluster(t *testing.T, pt *dataset.Partition, scheme string) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256, // small for test speed; correctness is key-size independent
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// enc encodes a request for a direct handler call (nil: the bare envelope).
func enc(m wire.Message) []byte {
	raw, _ := wire.Marshal(m)
	return raw
}

// nodeCounts sums the cumulative counters of cl's leader, aggregation server
// and parties.
func nodeCounts(cl *Cluster) costmodel.Raw {
	var total costmodel.Counts
	total.Add(cl.Leader.counts.Snapshot())
	total.Add(cl.Agg.counts.Snapshot())
	for _, p := range cl.Parties {
		total.Add(p.counts.Snapshot())
	}
	return total.Snapshot()
}

// runOne runs the vertical KNN oracle for one query as a round of its own.
func runOne(ctx context.Context, l *Leader, query, k int, variant Variant) (*QueryResult, error) {
	return l.runQuery(ctx, l.beginRound([]int{query}), query, k, variant)
}

// similaritiesCost runs Leader.Similarities under a fresh ctx accumulator, as
// core.Select does, and returns what the run cost.
func similaritiesCost(t *testing.T, l *Leader, queries []int, k int, variant Variant) costmodel.Raw {
	t.Helper()
	ctx, cost := costmodel.WithCounts(context.Background())
	if _, err := l.Similarities(ctx, queries, k, variant); err != nil {
		t.Fatal(err)
	}
	return cost.Snapshot()
}

// bruteNeighbors computes the query's k nearest neighbours in the joint
// feature space directly, as pseudo IDs under the cluster's shared shuffle.
func bruteNeighbors(d *dataset.Dataset, pt *dataset.Partition, cl *Cluster, query, k int) []int {
	joint := pt.Joint()
	n := joint.Rows
	dist := make([]float64, n)
	for i := 0; i < n; i++ {
		if i == query {
			dist[i] = math.Inf(1)
			continue
		}
		dist[i] = mat.SqDist(joint.Row(query), joint.Row(i))
	}
	perm := cl.Parties[0].perm
	type cand struct {
		pid int
		d   float64
	}
	cands := make([]cand, 0, n-1)
	for i := 0; i < n; i++ {
		if i == query {
			continue
		}
		cands = append(cands, cand{pid: perm[i], d: dist[i]})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].pid < cands[b].pid
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].pid
	}
	return out
}

func TestRunQueryMatchesBruteForce(t *testing.T) {
	d, pt := testPartition(t, "Rice", 120, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	for _, variant := range []Variant{VariantBase, VariantFagin} {
		for _, q := range []int{0, 17, 119} {
			res, err := runOne(ctx, cl.Leader, q, 5, variant)
			if err != nil {
				t.Fatalf("%s query %d: %v", variant, q, err)
			}
			want := bruteNeighbors(d, pt, cl, q, 5)
			got := append([]int{}, res.Neighbors...)
			// Distances can tie; compare as sets of the same size with the
			// same distance multiset by checking sorted ids match.
			sort.Ints(got)
			wantSorted := append([]int{}, want...)
			sort.Ints(wantSorted)
			for i := range got {
				if got[i] != wantSorted[i] {
					t.Fatalf("%s query %d: neighbours %v, want %v", variant, q, res.Neighbors, want)
				}
			}
		}
	}
}

func TestBaseAndFaginAgree(t *testing.T) {
	_, pt := testPartition(t, "Bank", 100, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{1, 5, 33, 77}
	base, err := cl.Leader.Similarities(ctx, queries, 5, VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	fagin, err := cl.Leader.Similarities(ctx, queries, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.W {
		for j := range base.W[i] {
			if math.Abs(base.W[i][j]-fagin.W[i][j]) > 1e-9 {
				t.Fatalf("W[%d][%d]: base %g fagin %g", i, j, base.W[i][j], fagin.W[i][j])
			}
		}
	}
	if fagin.AvgCandidates > base.AvgCandidates {
		t.Fatalf("fagin candidates %g exceed base %g", fagin.AvgCandidates, base.AvgCandidates)
	}
}

func TestPaillierAndPlainAgree(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 3)
	plain := newCluster(t, pt, "plain")
	pail := newCluster(t, pt, "paillier")
	ctx := context.Background()
	queries := []int{2, 30}
	a, err := plain.Leader.Similarities(ctx, queries, 4, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pail.Leader.Similarities(ctx, queries, 4, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		for j := range a.W[i] {
			if math.Abs(a.W[i][j]-b.W[i][j]) > 1e-6 {
				t.Fatalf("W[%d][%d]: plain %g paillier %g", i, j, a.W[i][j], b.W[i][j])
			}
		}
	}
}

func TestSimilarityMatrixProperties(t *testing.T) {
	_, pt := testPartition(t, "Credit", 150, 4)
	cl := newCluster(t, pt, "plain")
	rep, err := cl.Leader.Similarities(context.Background(), []int{3, 9, 50, 100, 149}, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	p := len(rep.W)
	for i := 0; i < p; i++ {
		if rep.W[i][i] != 1 {
			t.Fatalf("diagonal W[%d][%d] = %g", i, i, rep.W[i][i])
		}
		for j := 0; j < p; j++ {
			if rep.W[i][j] < 0 || rep.W[i][j] > 1+1e-9 {
				t.Fatalf("W[%d][%d] = %g out of [0,1]", i, j, rep.W[i][j])
			}
			if math.Abs(rep.W[i][j]-rep.W[j][i]) > 1e-12 {
				t.Fatalf("asymmetry at %d,%d", i, j)
			}
		}
	}
}

func TestDuplicatePartiesHaveUnitSimilarity(t *testing.T) {
	_, pt := testPartition(t, "Rice", 80, 3)
	dup := pt.WithDuplicates(1, 11) // party 3 duplicates some original
	cl := newCluster(t, dup, "plain")
	rep, err := cl.Leader.Similarities(context.Background(), []int{4, 40, 70}, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	src := dup.DuplicateOf[3]
	if w := rep.W[3][src]; math.Abs(w-1) > 1e-9 {
		t.Fatalf("duplicate similarity W[3][%d] = %g, want 1", src, w)
	}
}

func TestFaginPrunesCandidates(t *testing.T) {
	// With correlated partitions, Fagin must encrypt far fewer than N-1
	// instances per query.
	_, pt := testPartition(t, "Phishing", 400, 4)
	cl := newCluster(t, pt, "plain")
	rep, err := cl.Leader.Similarities(context.Background(), []int{10, 200}, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgCandidates >= 399 {
		t.Fatalf("no pruning: %g candidates", rep.AvgCandidates)
	}
	t.Logf("avg candidates: %g of 399", rep.AvgCandidates)
}

// TestCountsAccounting pins each role's counter for one BASE query, and that
// the cost trailers sum, at the leader, to exactly what the node counters
// moved.
func TestCountsAccounting(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 3)
	cl := newCluster(t, pt, "plain")
	total := similaritiesCost(t, cl.Leader, []int{5}, 4, VariantBase)
	// Every party encrypts N-1 = 59 partial distances in BASE.
	for i := 0; i < 3; i++ {
		c := cl.Parties[i].counts.Snapshot()
		if c.Encryptions != 59 {
			t.Fatalf("party %d encryptions = %d, want 59", i, c.Encryptions)
		}
		if c.DistanceFlops == 0 {
			t.Fatalf("party %d distance flops missing", i)
		}
	}
	// The server aggregates (P-1)*59 ciphertext additions.
	if c := cl.Agg.counts.Snapshot(); c.CipherAdds != 2*59 {
		t.Fatalf("agg cipher adds = %d, want 118", c.CipherAdds)
	}
	// The leader decrypts all 59 aggregated distances.
	if c := cl.Leader.counts.Snapshot(); c.Decryptions != 59 {
		t.Fatalf("leader decryptions = %d, want 59", c.Decryptions)
	}
	if nodes := nodeCounts(cl); total != nodes {
		t.Fatalf("the trailers summed %+v, the node counters %+v", total, nodes)
	}
}

func TestFaginEncryptsFewerThanBase(t *testing.T) {
	_, pt := testPartition(t, "Phishing", 300, 4)
	cl := newCluster(t, pt, "plain")
	baseTotal := similaritiesCost(t, cl.Leader, []int{7, 70}, 5, VariantBase)
	faginTotal := similaritiesCost(t, cl.Leader, []int{7, 70}, 5, VariantFagin)
	if faginTotal.Encryptions >= baseTotal.Encryptions {
		t.Fatalf("fagin encryptions %d not fewer than base %d",
			faginTotal.Encryptions, baseTotal.Encryptions)
	}
	t.Logf("encryptions: base %d, fagin %d", baseTotal.Encryptions, faginTotal.Encryptions)
}

func TestLeaderValidation(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 2)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	if _, err := runOne(ctx, cl.Leader, 0, 0, VariantBase); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, err := runOne(ctx, cl.Leader, 0, 5, Variant("bogus")); err == nil {
		t.Fatal("expected variant error")
	}
	if _, err := runOne(ctx, cl.Leader, -1, 5, VariantBase); err == nil {
		t.Fatal("expected query range error")
	}
	if _, err := runOne(ctx, cl.Leader, 0, 40, VariantBase); err == nil {
		t.Fatal("expected k>candidates error")
	}
	if _, err := cl.Leader.Similarities(ctx, nil, 5, VariantBase); err == nil {
		t.Fatal("expected empty query set error")
	}
}

func TestClusterValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewLocalCluster(ctx, ClusterConfig{}); err == nil {
		t.Fatal("expected partition error")
	}
	_, pt := testPartition(t, "Rice", 40, 2)
	if _, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: "rot13"}); err == nil {
		t.Fatal("expected scheme error")
	}
}

func TestParticipantFailureSurfacesError(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 3)
	cl := newCluster(t, pt, "plain")
	cl.Transport.InjectFailure(PartyName(1))
	_, err := cl.Leader.Similarities(context.Background(), []int{3}, 4, VariantFagin)
	if !errors.Is(err, transport.ErrInjectedFailure) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	// Recovery: clearing the fault restores service.
	cl.Transport.InjectFailure("")
	if _, err := cl.Leader.Similarities(context.Background(), []int{3}, 4, VariantFagin); err != nil {
		t.Fatalf("cluster did not recover: %v", err)
	}
}

func TestAggServerFailure(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 3)
	cl := newCluster(t, pt, "plain")
	cl.Transport.InjectFailure(AggServerName)
	if _, err := runOne(context.Background(), cl.Leader, 0, 3, VariantBase); err == nil {
		t.Fatal("expected error when aggregation server is down")
	}
}

func TestIdentitySecurityPseudoIDs(t *testing.T) {
	// The ranking a participant ships to the server must be pseudo IDs, not
	// original IDs: for a non-trivial shuffle they differ.
	_, pt := testPartition(t, "Rice", 50, 2)
	cl := newCluster(t, pt, "plain")
	party := cl.Parties[0]
	qc, err := party.distances(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	shipsPseudo := false
	for rank, it := range qc.ranked(party.N()) {
		orig := party.inv[it.ID]
		if qc.dist[orig] != it.Score {
			t.Fatalf("rank %d: pseudo id %d does not map back to its row's distance", rank, it.ID)
		}
		if orig != it.ID {
			shipsPseudo = true
		}
	}
	if !shipsPseudo {
		t.Fatal("ranking carries original ids")
	}
	// Verify the permutation is actually shuffling (overwhelmingly likely).
	moved := 0
	for orig, pid := range party.perm {
		if orig != pid {
			moved++
		}
	}
	if moved < 10 {
		t.Fatalf("shuffle barely permutes: %d moved", moved)
	}
	// All parties must share the same permutation.
	for i := 1; i < len(cl.Parties); i++ {
		for j, v := range cl.Parties[i].perm {
			if v != cl.Parties[0].perm[j] {
				t.Fatal("participants disagree on the pseudo-ID permutation")
			}
		}
	}
}

func TestParticipantValidation(t *testing.T) {
	if _, err := NewParticipant(0, nil, nil, 1); err == nil {
		t.Fatal("expected nil-data error")
	}
	m := mat.New(3, 2)
	if _, err := NewParticipant(0, m, nil, 1); err == nil {
		t.Fatal("expected nil-scheme error")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	// Wire the full topology over real TCP sockets: one server per role.
	_, pt := testPartition(t, "Rice", 60, 3)
	ctx := context.Background()

	ks, err := NewKeyServer("plain", 0)
	if err != nil {
		t.Fatal(err)
	}
	keySrv, err := transport.ListenTCP("127.0.0.1:0", ks.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer keySrv.Close()

	directory := map[string]string{KeyServerName: keySrv.Addr()}
	bootstrapCli := transport.NewTCPClient(directory)
	defer bootstrapCli.Close()
	pub, err := FetchPublicScheme(ctx, bootstrapCli, KeyServerName)
	if err != nil {
		t.Fatal(err)
	}

	partyNames := make([]string, pt.P())
	var partySrvs []*transport.TCPServer
	for i := 0; i < pt.P(); i++ {
		part, err := NewParticipant(i, pt.Parties[i], pub, 7)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.ListenTCP("127.0.0.1:0", part.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		partySrvs = append(partySrvs, srv)
		partyNames[i] = PartyName(i)
		directory[partyNames[i]] = srv.Addr()
	}
	_ = partySrvs

	aggCli := transport.NewTCPClient(directory)
	defer aggCli.Close()
	agg, err := NewAggServer(aggCli, partyNames, pub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aggSrv, err := transport.ListenTCP("127.0.0.1:0", agg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer aggSrv.Close()
	directory[AggServerName] = aggSrv.Addr()

	leaderCli := transport.NewTCPClient(directory)
	defer leaderCli.Close()
	priv, err := FetchPrivateScheme(ctx, leaderCli, KeyServerName)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader(leaderCli, AggServerName, partyNames, priv, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := leader.Similarities(ctx, []int{2, 30, 59}, 4, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}

	// The TCP run must agree with the in-memory run bit-for-bit.
	mem := newCluster(t, pt, "plain")
	memRep, err := mem.Leader.Similarities(ctx, []int{2, 30, 59}, 4, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.W {
		for j := range rep.W[i] {
			if math.Abs(rep.W[i][j]-memRep.W[i][j]) > 1e-12 {
				t.Fatalf("TCP vs memory divergence at %d,%d", i, j)
			}
		}
	}
}

func TestThresholdVariantMatchesBase(t *testing.T) {
	_, pt := testPartition(t, "Bank", 120, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{0, 25, 60, 119}
	base, err := cl.Leader.Similarities(ctx, queries, 5, VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := cl.Leader.Similarities(ctx, queries, 5, VariantThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.W {
		for j := range base.W[i] {
			if math.Abs(base.W[i][j]-ta.W[i][j]) > 1e-9 {
				t.Fatalf("W[%d][%d]: base %g threshold %g", i, j, base.W[i][j], ta.W[i][j])
			}
		}
	}
	if ta.AvgCandidates > base.AvgCandidates {
		t.Fatalf("TA candidates %g exceed base %g", ta.AvgCandidates, base.AvgCandidates)
	}
}

func TestThresholdPrunesAtLeastAsHardAsFagin(t *testing.T) {
	_, pt := testPartition(t, "Phishing", 400, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{10, 200}
	fagin, err := cl.Leader.Similarities(ctx, queries, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := cl.Leader.Similarities(ctx, queries, 5, VariantThreshold)
	if err != nil {
		t.Fatal(err)
	}
	// TA stops as soon as the bound allows; it must not see substantially
	// more candidates than Fagin under the same batch size.
	if ta.AvgCandidates > fagin.AvgCandidates+float64(8*pt.P()) {
		t.Fatalf("TA candidates %g much worse than Fagin %g", ta.AvgCandidates, fagin.AvgCandidates)
	}
	t.Logf("candidates: fagin %.1f, threshold %.1f", fagin.AvgCandidates, ta.AvgCandidates)
}

func TestThresholdVariantWithPaillier(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 3)
	cl := newCluster(t, pt, "paillier")
	res, err := runOne(context.Background(), cl.Leader, 5, 4, VariantThreshold)
	if err != nil {
		t.Fatal(err)
	}
	plain := newCluster(t, pt, "plain")
	want, err := runOne(context.Background(), plain.Leader, 5, 4, VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int{}, res.Neighbors...)
	wantN := append([]int{}, want.Neighbors...)
	sort.Ints(got)
	sort.Ints(wantN)
	for i := range got {
		if got[i] != wantN[i] {
			t.Fatalf("TA+paillier neighbours %v, want %v", res.Neighbors, want.Neighbors)
		}
	}
}

func TestThresholdUsesMoreLeaderRoundsThanFagin(t *testing.T) {
	// The reason the paper prefers Fagin: TA's termination check needs a
	// leader decryption per scan round.
	_, pt := testPartition(t, "Credit", 200, 4)
	cl := newCluster(t, pt, "plain")
	fagin := similaritiesCost(t, cl.Leader, []int{7}, 5, VariantFagin)
	ta := similaritiesCost(t, cl.Leader, []int{7}, 5, VariantThreshold)
	// Fagin decrypts once per candidate; TA additionally decrypts a τ per
	// round, so with similar candidate counts TA's leader does no less work.
	if ta.Decryptions == 0 || fagin.Decryptions == 0 {
		t.Fatal("missing decryption accounting")
	}
	t.Logf("leader decryptions: fagin %d, threshold %d", fagin.Decryptions, ta.Decryptions)
}

func TestParallelSimilaritiesMatchSequential(t *testing.T) {
	_, pt := testPartition(t, "Credit", 200, 4)
	ctx := context.Background()
	queries := []int{1, 20, 40, 60, 80, 100, 120, 140, 160, 199}
	seq, err := parallelCluster(t, pt, "plain", 1).Leader.Similarities(ctx, queries, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parallelCluster(t, pt, "plain", 4).Leader.Similarities(ctx, queries, 5, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.W {
		for j := range seq.W[i] {
			if seq.W[i][j] != par.W[i][j] {
				t.Fatalf("parallel diverges at %d,%d: %g vs %g", i, j, seq.W[i][j], par.W[i][j])
			}
		}
	}
	if seq.AvgCandidates != par.AvgCandidates {
		t.Fatal("candidate stats diverge")
	}
}

func TestParallelSimilaritiesErrorPropagates(t *testing.T) {
	_, pt := testPartition(t, "Rice", 50, 3)
	// One invalid query among many must fail the whole batch with the error
	// the serial loop surfaces: the one naming that query.
	queries := []int{1, 2, 3, -5, 4, 5}
	var serial string
	for _, parallelism := range []int{1, 3} {
		cl := parallelCluster(t, pt, "plain", parallelism)
		_, err := cl.Leader.Similarities(context.Background(), queries, 4, VariantFagin)
		if err == nil || !strings.Contains(err.Error(), "query -5:") {
			t.Fatalf("parallelism=%d: got %v, want an error naming query -5", parallelism, err)
		}
		if parallelism == 1 {
			serial = err.Error()
		} else if err.Error() != serial {
			t.Fatalf("parallelism=%d: got %q, serial run got %q", parallelism, err, serial)
		}
	}
}

func TestParticipantCacheEviction(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 2)
	cl := newCluster(t, pt, "plain")
	party := cl.Parties[0]
	limit := cacheMaxEntries // 60-row entries are far inside the byte budget
	// Touch more queries than the cache holds.
	for q := 0; q < limit+10; q++ {
		if _, err := party.distances(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	party.mu.Lock()
	size := len(party.cache)
	party.mu.Unlock()
	if size != limit {
		t.Fatalf("cache holds %d entries, want its limit %d", size, limit)
	}
	// Evicted entries must still be recomputable.
	if _, err := party.distances(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEntriesByteBudget pins the cache bound: a fixed byte budget per
// participant, so small consortiums keep the 32 entries they always had and
// a large participant keeps as many N-length distance vectors as fit, but
// never fewer than the 4 one selection has in flight.
func TestCacheEntriesByteBudget(t *testing.T) {
	for _, c := range []struct{ rows, want int }{
		{1, 32}, {60, 32}, {30_000, 32}, {50_000, 20}, {100_000, 10}, {200_000, 5}, {10_000_000, 4},
	} {
		p := &Participant{cache: map[int]*queryCache{}}
		for q := 0; q < 40; q++ {
			qc := &queryCache{}
			qc.bytes.Store(entryBytes(c.rows, 0))
			p.cache[q] = qc
			p.cacheOrder = append(p.cacheOrder, q)
			p.trimCacheLocked()
		}
		if got := len(p.cache); got != c.want || len(p.cacheOrder) != got {
			t.Errorf("%d-row cache keeps %d entries (%d in order), want %d", c.rows, got, len(p.cacheOrder), c.want)
		}
		for q := 40 - c.want; q < 40; q++ {
			if p.cache[q] == nil {
				t.Errorf("%d-row cache evicted query %d, one of the newest %d", c.rows, q, c.want)
			}
		}
	}
}

// TestQueryCacheWithinBudget scans 40 distinct queries of a 100 000-row
// participant through the ranking RPC — most to a Fagin depth, some to the
// end of the list — and requires what the cache holds, counted from its
// slices, to stay within cacheBudgetBytes throughout.
func TestQueryCacheWithinBudget(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	x := mat.New(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
	}
	p, err := NewParticipant(0, x, he.NewPlain(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for q := 0; q < 40; q++ {
		query := q * (n / 40)
		depth := 2112
		if q%8 == 7 {
			depth = n // a TA scan to the end sorts the whole list
		}
		for offset := 0; offset < depth; offset += 1024 {
			if _, err := p.rankingBatch(ctx, RankingBatchReq{Query: query, Offset: offset, Count: 1024}); err != nil {
				t.Fatal(err)
			}
		}
		p.mu.Lock()
		held, entries := 0, len(p.cache)
		for _, qc := range p.cache {
			qc.mu.Lock()
			held += 8*cap(qc.dist) + 16*cap(qc.rank.Sorted)
			qc.mu.Unlock()
		}
		p.mu.Unlock()
		if held > cacheBudgetBytes {
			t.Fatalf("after query %d the cache holds %d B in %d entries, over its %d B budget", q, held, entries, cacheBudgetBytes)
		}
		if entries < min(q+1, cacheMinEntries) {
			t.Fatalf("after query %d the cache keeps %d entries, fewer than %d", q, entries, min(q+1, cacheMinEntries))
		}
	}
}

// TestChurnUnregistersDepartedNodes pins that membership churn does not
// accumulate handlers on the in-memory transport: a departed party stops
// being reachable (and so stops pinning its feature matrix and caches), and
// after any number of join→leave cycles the transport serves exactly the cold
// cluster's names.
func TestChurnUnregistersDepartedNodes(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Rice", 30, 4)
	cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, ShuffleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registered := func(name string) bool {
		_, err := cl.Transport.Call(ctx, name, "probe", enc(nil))
		return !errors.Is(err, transport.ErrUnknownPeer)
	}
	// Every name a cycle can touch: 4 cold parties + 8 joiners.
	serving := func() (names []string) {
		for _, fixed := range []string{KeyServerName, AggServerName} {
			if registered(fixed) {
				names = append(names, fixed)
			}
		}
		for i := 0; i < 13; i++ {
			if registered(PartyName(i)) {
				names = append(names, PartyName(i))
			}
		}
		return names
	}
	cold := serving()
	if len(cold) != 2+4 {
		t.Fatalf("cold cluster serves %v, want key server, aggregation server, 4 parties", cold)
	}
	for cycle := 0; cycle < 8; cycle++ {
		if _, err := cl.AddParticipant(pt.Parties[0]); err != nil {
			t.Fatal(err)
		}
		joiner := 4 + cycle
		if err := cl.RemoveParticipant(joiner); err != nil {
			t.Fatal(err)
		}
		if err := cl.RemoveParticipant(joiner); !errors.Is(err, ErrUnknownParticipant) {
			t.Fatalf("cycle %d: removing departed %s again: err = %v, want ErrUnknownParticipant", cycle, PartyName(joiner), err)
		}
		if _, err := cl.Transport.Call(ctx, PartyName(joiner), "probe", enc(nil)); !errors.Is(err, transport.ErrUnknownPeer) {
			t.Fatalf("cycle %d: call to departed %s: err = %v, want ErrUnknownPeer", cycle, PartyName(joiner), err)
		}
	}
	if got := serving(); !slices.Equal(got, cold) {
		t.Fatalf("after 8 join→leave cycles the transport serves %v, cold cluster served %v", got, cold)
	}
	if _, err := cl.Leader.Similarities(ctx, []int{1, 7}, 3, VariantFagin); err != nil {
		t.Fatalf("selection after churn: %v", err)
	}
}

func TestFetchSchemeErrors(t *testing.T) {
	tr := &transport.Memory{}
	ctx := context.Background()
	// Key server absent.
	if _, err := FetchPublicScheme(ctx, tr, KeyServerName); err == nil {
		t.Fatal("expected unknown-peer error")
	}
	if _, err := FetchPrivateScheme(ctx, tr, KeyServerName); err == nil {
		t.Fatal("expected unknown-peer error")
	}
	// Key server speaking an unknown scheme.
	tr.Register(KeyServerName, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		return enc(&PublicKeyResp{Scheme: "rot13"}), nil
	})
	if _, err := FetchPublicScheme(ctx, tr, KeyServerName); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
	// Garbage payload.
	tr.Register(KeyServerName, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		return []byte{0xff, 0x01}, nil
	})
	if _, err := FetchPublicScheme(ctx, tr, KeyServerName); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestKeyServerValidation(t *testing.T) {
	if _, err := NewKeyServer("rot13", 0); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
	ks, err := NewKeyServer("plain", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Handler()(context.Background(), "nope", enc(nil)); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
}

func TestParticipantHandlerErrors(t *testing.T) {
	_, pt := testPartition(t, "Rice", 30, 2)
	cl := newCluster(t, pt, "plain")
	h := cl.Parties[0].Handler()
	ctx := context.Background()
	if _, err := h(ctx, "nope", enc(nil)); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	if _, err := h(ctx, MethodRankingBatch, []byte{0xff}); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := h(ctx, MethodRankingBatch, enc(&RankingBatchReq{Query: 0, Offset: -1, Count: 5})); err == nil {
		t.Fatal("expected offset error")
	}
	if _, err := h(ctx, MethodRankingBatch, enc(&RankingBatchReq{Query: 0, Offset: 0, Count: 0})); err == nil {
		t.Fatal("expected count error")
	}
	if _, err := h(ctx, MethodEncryptCandidates, enc(&EncryptCandidatesReq{Query: 0, PseudoIDs: []int{999}})); err == nil {
		t.Fatal("expected candidate range error")
	}
	if _, err := h(ctx, MethodNeighborSum, enc(&NeighborSumReq{Query: 0, PseudoIDs: []int{-1}})); err == nil {
		t.Fatal("expected neighbour range error")
	}
	if _, err := h(ctx, MethodEncryptRankScore, enc(&EncryptRankScoreReq{Query: 0, Rank: -3})); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestSimilaritiesContextCancellation(t *testing.T) {
	_, pt := testPartition(t, "Credit", 200, 4)
	cl := parallelCluster(t, pt, "plain", 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Leader.Similarities(ctx, []int{1, 2, 3, 4}, 5, VariantFagin); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestAggServerHandlerErrors(t *testing.T) {
	_, pt := testPartition(t, "Rice", 30, 2)
	cl := newCluster(t, pt, "plain")
	h := cl.Agg.Handler()
	ctx := context.Background()
	if _, err := h(ctx, "nope", enc(nil)); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	if _, err := h(ctx, MethodFaginCollect, enc(&FaginCollectReq{Query: 0, K: 0, Batch: 8})); err == nil {
		t.Fatal("expected k validation error")
	}
	if _, err := h(ctx, MethodFaginCollect, enc(&FaginCollectReq{Query: 0, K: 5, Batch: 0})); err == nil {
		t.Fatal("expected batch validation error")
	}
	if _, err := h(ctx, MethodFaginCollect, enc(&FaginCollectReq{Query: 0, K: 99, Batch: 8})); err == nil {
		t.Fatal("expected exhaustion error")
	}
}
