package vfl

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/wire"
)

// dropBytes clears the wire-byte fields of a snapshot. Byte counters charge
// bytes as actually encoded, and Paillier ciphertexts are randomized big
// integers whose serialized length varies by a byte or two between runs —
// independent of parallelism — so determinism checks compare the operation
// counts only for randomized schemes.
func dropBytes(r costmodel.Raw) costmodel.Raw {
	r.BytesSent, r.FramingBytes = 0, 0
	return r
}

func parallelCluster(t *testing.T, pt *dataset.Partition, scheme string, parallelism int) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
		Options:     Options{Parallelism: parallelism},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestParallelismDeterminism is the pipeline's core contract: a cluster
// running with worker pools and concurrent party fan-out produces the exact
// similarity matrix, the exact neighbour sets, and the exact operation counts
// of a fully serial run.
func TestParallelismDeterminism(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	ctx := context.Background()
	queries := []int{0, 11, 29, 58}
	for _, scheme := range []string{"plain", "paillier"} {
		for _, variant := range []Variant{VariantBase, VariantFagin} {
			t.Run(fmt.Sprintf("%s/%s", scheme, variant), func(t *testing.T) {
				serial := parallelCluster(t, pt, scheme, 1)
				parallel := parallelCluster(t, pt, scheme, 4)

				sq, err := runOne(ctx, serial.Leader, queries[0], 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				pq, err := runOne(ctx, parallel.Leader, queries[0], 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				if len(sq.Neighbors) != len(pq.Neighbors) {
					t.Fatalf("neighbour counts differ: %d vs %d", len(sq.Neighbors), len(pq.Neighbors))
				}
				for i := range sq.Neighbors {
					if sq.Neighbors[i] != pq.Neighbors[i] {
						t.Fatalf("neighbour %d differs: %v vs %v", i, sq.Neighbors, pq.Neighbors)
					}
				}

				srep, err := serial.Leader.Similarities(ctx, queries, 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				prep, err := parallel.Leader.Similarities(ctx, queries, 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				for i := range srep.W {
					for j := range srep.W[i] {
						if srep.W[i][j] != prep.W[i][j] {
							t.Fatalf("W[%d][%d] differs: %v vs %v",
								i, j, srep.W[i][j], prep.W[i][j])
						}
					}
				}
				if srep.AvgCandidates != prep.AvgCandidates {
					t.Fatalf("AvgCandidates differ: %v vs %v", srep.AvgCandidates, prep.AvgCandidates)
				}

				sc, pc := nodeCounts(serial), nodeCounts(parallel)
				if scheme == "paillier" {
					sc, pc = dropBytes(sc), dropBytes(pc)
				}
				if sc != pc {
					t.Fatalf("operation counts differ under concurrency:\nserial:   %+v\nparallel: %+v", sc, pc)
				}
			})
		}
	}
}

// TestParallelismThresholdVariant covers the leader-driven TA scan, whose
// per-round candidate aggregation also fans out.
func TestParallelismThresholdVariant(t *testing.T) {
	_, pt := testPartition(t, "Rice", 50, 3)
	ctx := context.Background()
	serial := parallelCluster(t, pt, "paillier", 1)
	parallel := parallelCluster(t, pt, "paillier", 4)
	for _, q := range []int{0, 17} {
		sq, err := runOne(ctx, serial.Leader, q, 3, VariantThreshold)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := runOne(ctx, parallel.Leader, q, 3, VariantThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sq.Neighbors) != fmt.Sprint(pq.Neighbors) {
			t.Fatalf("query %d: neighbours differ: %v vs %v", q, sq.Neighbors, pq.Neighbors)
		}
	}
	if sc, pc := dropBytes(nodeCounts(serial)), dropBytes(nodeCounts(parallel)); sc != pc {
		t.Fatalf("threshold counts differ:\nserial:   %+v\nparallel: %+v", sc, pc)
	}
}

// TestParallelContextCancellation verifies the satellite bugfix: a cancelled
// context aborts the party fan-out and the encryption loops instead of
// completing the full protocol round.
func TestParallelContextCancellation(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	for _, parallelism := range []int{1, 4} {
		cl := parallelCluster(t, pt, "paillier", parallelism)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := runOne(ctx, cl.Leader, 0, 3, VariantBase); err == nil {
			t.Fatalf("parallelism=%d: a query on a cancelled ctx succeeded", parallelism)
		}
		if _, err := runOne(ctx, cl.Leader, 0, 3, VariantThreshold); err == nil {
			t.Fatalf("parallelism=%d: a threshold query on a cancelled ctx succeeded", parallelism)
		}
	}
}

// TestQueriesInFlightStayWithinTheCacheFloor runs 16 queries at Parallelism
// 64 and watches every party: no party may ever hold more than
// cacheMinEntries distinct queries between a query's first RankingBatch and
// its NeighborSum, so each in-flight query keeps its distance entry. Every
// distance vector is computed exactly once, and W is the serial run's W bit
// for bit.
func TestQueriesInFlightStayWithinTheCacheFloor(t *testing.T) {
	_, pt := testPartition(t, "Bank", 120, 3)
	ctx := context.Background()
	queries := make([]int, 16)
	for i := range queries {
		queries[i] = 7 * i
	}
	cl := parallelCluster(t, pt, "plain", 64)
	var mu sync.Mutex
	peak := 0
	for i, p := range cl.Parties {
		inner := p.Handler()
		open := map[int]bool{}
		cl.Transport.Register(PartyName(i), func(ctx context.Context, method string, req []byte) ([]byte, error) {
			var query int
			switch method {
			case MethodRankingBatch:
				var r RankingBatchReq
				if err := wire.Unmarshal(req, &r); err != nil {
					return nil, err
				}
				mu.Lock()
				opened := !open[r.Query]
				open[r.Query] = true
				peak = max(peak, len(open))
				mu.Unlock()
				if opened {
					// Hold the query open, so an uncapped fan-out overlaps them all.
					time.Sleep(time.Millisecond)
				}
			case MethodNeighborSum:
				var r NeighborSumReq
				if err := wire.Unmarshal(req, &r); err != nil {
					return nil, err
				}
				query = r.Query
				defer func() {
					mu.Lock()
					delete(open, query)
					mu.Unlock()
				}()
			}
			return inner(ctx, method, req)
		})
	}
	cctx, cost := costmodel.WithCounts(ctx)
	rep, err := cl.Leader.Similarities(cctx, queries, 3, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	if peak > cacheMinEntries || peak < 2 {
		t.Fatalf("a party held up to %d queries in flight at once, want 2 to %d", peak, cacheMinEntries)
	}
	var want int64
	for _, p := range cl.Parties {
		want += int64(len(queries) * (p.N() - 1) * p.Features())
	}
	if got := cost.Snapshot().DistanceFlops; got != want {
		t.Fatalf("DistanceFlops = %d, want %d: a distance vector was computed more than once", got, want)
	}
	serial, err := parallelCluster(t, pt, "plain", 1).Leader.Similarities(ctx, queries, 3, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.W, serial.W) {
		t.Fatalf("W differs from the serial run:\n%v\n%v", rep.W, serial.W)
	}
}

// TestPackWidthIsFixedPerRound runs two rounds of concurrent queries on a
// fresh Paillier cluster: every collection of round one packs under the
// static geometry, and every collection of round two under the one width
// round one taught the aggregation server, whichever query finished first.
func TestPackWidthIsFixedPerRound(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	ctx := context.Background()
	queries := []int{0, 7, 11, 23, 29, 36, 41, 58}
	cl := parallelCluster(t, pt, "paillier", 4)
	var mu sync.Mutex
	widths := map[int][]int{} // leader round → PackBits of its FaginCollect responses
	inner := cl.Agg.Handler()
	cl.Transport.Register(AggServerName, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		raw, err := inner(ctx, method, req)
		if err != nil || method != MethodFaginCollect {
			return raw, err
		}
		var r FaginCollectReq
		var resp FaginCollectResp
		if err := wire.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		if err := wire.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		mu.Lock()
		widths[r.Round] = append(widths[r.Round], resp.PackBits)
		mu.Unlock()
		return raw, nil
	})
	for range 2 {
		if _, err := cl.Leader.Similarities(ctx, queries, 3, VariantFagin); err != nil {
			t.Fatal(err)
		}
	}
	if len(widths) != 2 || len(widths[1]) != len(queries) || len(widths[2]) != len(queries) {
		t.Fatalf("collections per round: %v, want %d in each of rounds 1 and 2", widths, len(queries))
	}
	for _, bits := range widths[1] {
		if bits != 0 {
			t.Fatalf("round 1 packed at widths %v, want the static geometry (0) throughout", widths[1])
		}
	}
	for _, bits := range widths[2] {
		if bits == 0 || bits != widths[2][0] {
			t.Fatalf("round 2 packed at widths %v, want one non-zero width throughout", widths[2])
		}
	}
}
