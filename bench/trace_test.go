package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"vfps/internal/transport"
)

const ms = time.Millisecond

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindRoot, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms}, // overlaps 2
		{ID: 4, Parent: 1, Start: 25 * ms, End: 28 * ms}, // inside 2 and 3
		{ID: 5, Parent: 1, Start: 70 * ms, End: 80 * ms},
		{ID: 6, Parent: 1, Start: 95 * ms, End: 120 * ms}, // runs past its parent
		{ID: 7, Parent: 3, Start: 20 * ms, End: 50 * ms},  // covers 3 entirely
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 45 * ms, // 100 − ([10,50] ∪ [70,80] ∪ [95,100])
		2: 20 * ms,
		3: 0,
		7: 30 * ms,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestConcurrentChildrenAreNotSubtractedTwice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rec := newRecorder()
	nap := rec.timed(kindHandler, "party/0", func(context.Context, string, []byte) ([]byte, error) {
		time.Sleep(30 * ms)
		return nil, nil
	})
	err := rec.root(context.Background(), "core.Select", func(ctx context.Context) error {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = nap(ctx, "party.encryptCandidates", nil)
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	root := spans[2] // closed last
	if root.Kind != kindRoot || spans[0].Parent != root.ID || spans[1].Parent != root.ID {
		t.Fatalf("children not linked to the root: %+v", spans)
	}
	// Two 30 ms children side by side cover ~30 ms of the root, not 60.
	self := selfTimes(spans)[root.ID]
	if self < 0 || self > root.dur()-25*ms {
		t.Errorf("root lasted %v with self time %v", root.dur(), self)
	}
	if got := ledger(spans, 1)["vfl.party.encrypt_s"]; got < 0.055 {
		t.Errorf("encrypt busy time %.3f s, want both children summed", got)
	}
}

func TestBridgedHandlerAdoptsTheForwardSpan(t *testing.T) {
	rec := newRecorder()
	// The TCP server starts handlers from a bare context.
	handler := rec.timed(kindHandler, "aggserver", func(context.Context, string, []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	forward := rec.timed(kindForward, "aggserver", func(_ context.Context, method string, req []byte) ([]byte, error) {
		return handler(context.Background(), method, req)
	})
	if _, err := forward(context.Background(), "agg.faginCollect", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	h, f := spans[0], spans[1]
	if h.Kind != kindHandler || f.Kind != kindForward || h.Parent != f.ID {
		t.Fatalf("handler %+v not parented by forward %+v", h, f)
	}
	if h.ReqBytes != 3 || h.RespBytes != 2 {
		t.Errorf("handler span bytes = %d/%d, want 3/2", h.ReqBytes, h.RespBytes)
	}
	m := ledger(spans, 1)
	if m["transport.calls"] != 1 || m["transport.bytes"] != 5 || m["vfl.rpc.calls.agg"] != 1 {
		t.Errorf("ledger = %v", m)
	}
}

func TestDumpSpansRoundTrips(t *testing.T) {
	rec := newRecorder()
	h := rec.timed(kindHandler, "party/1", transport.Handler(func(context.Context, string, []byte) ([]byte, error) { return nil, nil }))
	if _, err := h(context.Background(), "party.rankingBatch", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := dumpSpans(path, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != rec.snapshot()[0] {
		t.Errorf("dump read back as %+v", back)
	}
}

func TestSpanCostIsSmallAndNonNegative(t *testing.T) {
	for _, c := range []struct {
		callers int
		bridged bool
	}{{1, false}, {4, false}, {16, true}} {
		if cost := spanCost(c.callers, c.bridged); cost < 0 || cost > 100*time.Microsecond {
			t.Errorf("recording one span with %d callers (bridged %t) costs %v", c.callers, c.bridged, cost)
		}
	}
}
