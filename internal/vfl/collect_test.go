package vfl

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// clearCache empties a delta cache in place, as FIFO pressure would.
func clearCache(c *deltaCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m, c.order, c.head = nil, nil, 0
}

// linkTap counts the traffic on the party links of one node: responses that
// withheld blocks from a request without NoCache (each one a forced miss once
// the receiver's cache is gone) and requests that carried NoCache (retries).
type linkTap struct {
	withheld, retried atomic.Int64
}

// tap re-registers node on tr behind h, counting its candidate pulls.
func (lt *linkTap) tap(tr *transport.Memory, node string, h transport.Handler) {
	tr.Register(node, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		out, err := h(ctx, method, req)
		if err != nil || method != MethodEncryptCandidates {
			return out, err
		}
		var r EncryptCandidatesReq
		var resp EncryptCandidatesResp
		if err := wire.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		if err := wire.Unmarshal(out, &resp); err != nil {
			return nil, err
		}
		if r.NoCache {
			lt.retried.Add(1)
		} else if len(resp.CachedBlocks) > 0 {
			lt.withheld.Add(1)
		}
		return out, nil
	})
}

// TestDeltaMissRetry is the fault test of the delta-cache miss retry on the
// party links. Two warm rounds bring the delta cache to its steady state;
// then the receiving end of the party links loses its cache, emptied in
// place, and a third round must still select exactly what a fresh
// consortium's cold round selects. Every response that withheld blocks
// the receiver no longer holds is one charged miss, and each miss costs
// exactly one NoCache retry on that link.
func TestDeltaMissRetry(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Rice", 40, 4)
	queries := []int{0, 9, 23}
	ref, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: "paillier", KeyBits: 256,
		ShuffleSeed: 7, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	want, err := ref.Leader.Similarities(ctx, queries, 3, VariantFagin)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("agg<-party", func(t *testing.T) {
		cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: "paillier", KeyBits: 256,
			ShuffleSeed: 7, Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		for round := 0; round < 2; round++ {
			if _, err := cl.Leader.Similarities(ctx, queries, 3, VariantFagin); err != nil {
				t.Fatal(err)
			}
		}
		// The receiving end of every party link loses its cache.
		var lt linkTap
		for i, name := range cl.PartyNames() {
			clearCache(cl.Agg.recvCache.forPeer(name))
			lt.tap(cl.Transport, name, cl.Parties[i].Handler())
		}
		rctx, cost := costmodel.WithCounts(ctx)
		got, err := cl.Leader.Similarities(rctx, queries, 3, VariantFagin)
		if err != nil {
			t.Fatalf("round after the fault: %v", err)
		}
		for i := range want.W {
			for j := range want.W[i] {
				if got.W[i][j] != want.W[i][j] {
					t.Fatalf("W[%d][%d] = %v after the retry, %v on a cold cluster", i, j, got.W[i][j], want.W[i][j])
				}
			}
		}
		total := cost.Snapshot()
		misses, retried := lt.withheld.Load(), lt.retried.Load()
		if misses == 0 {
			t.Fatal("the fault forced no delta-cache miss; the retry went unexercised")
		}
		if total.CacheMisses != misses {
			t.Fatalf("charged %d cache misses, forced %d", total.CacheMisses, misses)
		}
		if retried != misses {
			t.Fatalf("%d NoCache retries for %d misses, want exactly one each", retried, misses)
		}
	})
}

// TestCollectRejectsHostileLayout pins each layout check of the collect
// pipeline against a peer that answers with a well-framed but inconsistent
// vector. Every case must fail fast with an error naming that peer. A
// non-Paillier party link caches nothing, so withholding there is refused
// outright; a Paillier party that still withholds after the NoCache retry
// broke the layout contract rather than missing a cache. The leader checks
// the aggregate's length against its pseudo IDs.
func TestCollectRejectsHostileLayout(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 4)
	hostileParty := PartyName(1)
	// Each edit withholds block 0 of every reply, NoCache or not.
	withholdParty := func(raw []byte) []byte {
		var resp EncryptCandidatesResp
		mustUnmarshal(t, raw, &resp)
		resp.Ciphers[0], resp.CachedBlocks = nil, []int{0}
		return enc(&resp)
	}
	for _, c := range []struct {
		name   string
		scheme string
		node   string
		method string
		edit   func(resp []byte) []byte
		want   string
	}{
		{"party withholds without delta", "plain", hostileParty, MethodEncryptCandidates, withholdParty,
			"withheld 1 blocks without delta caching"},
		{"party withholds from a NoCache resend", "paillier", hostileParty, MethodEncryptCandidates, withholdParty,
			"withheld 1 blocks from a NoCache resend"},
		{"party returns too few ciphertexts", "paillier", hostileParty, MethodEncryptCandidates, func(raw []byte) []byte {
			var resp EncryptCandidatesResp
			mustUnmarshal(t, raw, &resp)
			resp.Ciphers = resp.Ciphers[:len(resp.Ciphers)-1]
			return enc(&resp)
		}, "aggregates for"},
		{"party returns too many ciphertexts for BASE", "paillier", hostileParty, MethodEncryptAll, func(raw []byte) []byte {
			var resp EncryptAllResp
			mustUnmarshal(t, raw, &resp)
			resp.Ciphers = append(resp.Ciphers, resp.Ciphers[0])
			return enc(&resp)
		}, "aggregates for"},
		{"aggregation server returns too few aggregates", "paillier", AggServerName, MethodFaginCollect, func(raw []byte) []byte {
			var resp FaginCollectResp
			mustUnmarshal(t, raw, &resp)
			resp.Aggregated = resp.Aggregated[:len(resp.Aggregated)-1]
			return enc(&resp)
		}, "aggregates for"},
		{"aggregation server returns too many aggregates for BASE", "paillier", AggServerName, MethodCollectAll, func(raw []byte) []byte {
			var resp CollectAllResp
			mustUnmarshal(t, raw, &resp)
			resp.Aggregated = append(resp.Aggregated, resp.Aggregated[0])
			return enc(&resp)
		}, "aggregates for"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: c.scheme, KeyBits: 256,
				ShuffleSeed: 7, Batch: 8})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			honest := cl.Parties[1].Handler()
			if c.node == AggServerName {
				honest = cl.Agg.Handler()
			}
			cl.Transport.Register(c.node, func(ctx context.Context, method string, req []byte) ([]byte, error) {
				out, err := honest(ctx, method, req)
				if err != nil || method != c.method {
					return out, err
				}
				return c.edit(out), nil
			})
			variant := VariantFagin
			if c.method == MethodEncryptAll || c.method == MethodCollectAll {
				variant = VariantBase
			}
			_, err = runOne(ctx, cl.Leader, 0, 3, variant)
			if ctx.Err() != nil {
				t.Fatalf("query hung until the deadline: %v", err)
			}
			if err == nil || !strings.Contains(err.Error(), c.node) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q naming %s", err, c.want, c.node)
			}
		})
	}
}

// TestResponsesCarryTheirCost pins the cost trailer: a role's response is
// its message followed by the wire.CostTag field, whose wireRaw is exactly
// what serving the call moved the role's counter by, the message's bytes
// included and the trailer's own not. A decoder that does not bind the tag
// reads the message unchanged.
func TestResponsesCarryTheirCost(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 2)
	cl := newCluster(t, pt, "plain")
	t.Cleanup(cl.Close)
	party := cl.Parties[0]
	out, err := party.Handler()(context.Background(), MethodNeighborSum,
		enc(&NeighborSumReq{Query: 3, PseudoIDs: []int{1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	var resp NeighborSumResp
	if err := wire.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	msg := enc(&resp)
	cost := wireRaw(party.counts.Snapshot())
	if want := wire.AppendTrailer(append([]byte(nil), msg...), wire.CostTag, &cost); !bytes.Equal(out, want) {
		t.Fatalf("response %x, want the message %x and the trailer of %+v", out, msg, cost)
	}
	if cost.DistanceFlops == 0 || cost.PlainAdds != 2 || cost.Messages != 1 {
		t.Fatalf("trailer %+v, want the distance pass, 2 plain adds and 1 message", cost)
	}
	if charged := cost.BytesSent + cost.FramingBytes; charged != int64(len(msg)) {
		t.Fatalf("charged %d bytes for a %d-byte message", charged, len(msg))
	}
}

// TestCollectRejectsHostileCostTrailer is TestCollectRejectsHostileLayout for
// the cost trailer: a party lies about what serving a call cost, and the
// aggregation server refuses the call with wire.ErrCorrupt naming the party
// rather than booking a negative or garbled count to the selection.
func TestCollectRejectsHostileCostTrailer(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 4)
	hostileParty := PartyName(1)
	costKey := func(wt uint64) []byte { return wire.AppendUvarint(nil, wire.CostTag<<3|wt) }
	for _, c := range []struct {
		name    string
		trailer func(msg []byte) []byte
	}{
		{"negative count", func(msg []byte) []byte {
			return wire.AppendTrailer(msg, wire.CostTag, &wireRaw{Encryptions: 5, CipherAdds: -40})
		}},
		{"truncated count", func(msg []byte) []byte {
			// A two-byte body whose Encryptions varint never ends.
			return append(append(msg, costKey(2)...), 2, 0x10, 0x80)
		}},
		{"varint in place of the nested counts", func(msg []byte) []byte {
			return append(append(msg, costKey(0)...), 7)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, ShuffleSeed: 7, Batch: 8})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			honest := cl.Parties[1].Handler()
			cl.Transport.Register(hostileParty, func(ctx context.Context, method string, req []byte) ([]byte, error) {
				out, err := honest(ctx, method, req)
				if err != nil || method != MethodEncryptCandidates {
					return out, err
				}
				var resp EncryptCandidatesResp
				mustUnmarshal(t, out, &resp)
				return c.trailer(enc(&resp)), nil
			})
			_, err = runOne(ctx, cl.Leader, 0, 3, VariantFagin)
			if ctx.Err() != nil {
				t.Fatalf("query hung until the deadline: %v", err)
			}
			if !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), hostileParty) {
				t.Fatalf("err = %v, want wire.ErrCorrupt naming %s", err, hostileParty)
			}
		})
	}
}

// mustUnmarshal decodes a response inside a handler, which may run off the
// test goroutine, so a failure is reported without FailNow.
func mustUnmarshal(t *testing.T, raw []byte, m wire.Message) {
	t.Helper()
	if err := wire.Unmarshal(raw, m); err != nil {
		t.Error(err)
	}
}

// TestOneCollectPipeline keeps the collect pipeline single. It parses this
// package's non-test Go and fails unless exactly one function sends ranking
// batches, exactly one pulls encrypted party vectors, and exactly one tests
// for a delta-cache miss — the checks and the retry those paths carry then
// have one home.
func TestOneCollectPipeline(t *testing.T) {
	ident := func(names ...string) func(ast.Node) bool {
		return func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return false
			}
			for _, name := range names {
				if id.Name == name {
					return true
				}
			}
			return false
		}
	}
	missTest := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Is" {
			return false
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "errors" {
			return false
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == "ErrDeltaCacheMiss" {
				return true
			}
		}
		return false
	}
	ops := []struct {
		what  string
		match func(ast.Node) bool
	}{
		{"send MethodRankingBatch", ident("MethodRankingBatch")},
		{"send MethodEncryptAll/MethodEncryptCandidates", ident("MethodEncryptAll", "MethodEncryptCandidates")},
		{"test errors.Is(…, ErrDeltaCacheMiss)", missTest},
	}

	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	found := make([][]string, len(ops))
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			for i, op := range ops {
				if usedOutsideCases(fn.Body, op.match) {
					found[i] = append(found[i], fset.Position(fn.Pos()).String()+" "+fn.Name.Name)
				}
			}
		}
	}
	for i, op := range ops {
		if len(found[i]) != 1 {
			t.Errorf("%d functions %s, want exactly one — the collect pipeline's: %v", len(found[i]), op.what, found[i])
		}
	}
}

// usedOutsideCases reports whether match holds anywhere under n except in a
// switch case's labels: a handler dispatching on a method name serves that
// method, it does not send it.
func usedOutsideCases(n ast.Node, match func(ast.Node) bool) bool {
	hit := false
	ast.Inspect(n, func(n ast.Node) bool {
		if hit {
			return false
		}
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, s := range cc.Body {
				hit = hit || usedOutsideCases(s, match)
			}
			return false
		}
		hit = match(n)
		return !hit
	})
	return hit
}
