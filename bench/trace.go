package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vfps/internal/transport"
)

// Span kinds. A root wraps one core.Select call; a handler wraps one call
// into a role's Handler(); a forward wraps the client side of a bridged call
// (bridge.go), so forward − handler is the time spent in transport framing
// and the socket.
const (
	kindRoot    = "root"
	kindHandler = "handler"
	kindForward = "forward"
)

// span is one timed call at a layer boundary. Times are offsets from the
// recorder's epoch so a dump is readable without wall-clock context.
type span struct {
	ID        int64         `json:"id"`
	Parent    int64         `json:"parent"` // 0 for roots
	Kind      string        `json:"kind"`
	Role      string        `json:"role"`
	Method    string        `json:"method"`
	Start     time.Duration `json:"startNs"`
	End       time.Duration `json:"endNs"`
	ReqBytes  int           `json:"reqBytes"`
	RespBytes int           `json:"respBytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span of a traced pass in memory; nothing is written
// until dump, so recording costs one mutex-guarded append per RPC.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	// inflight holds, per role+method, the forward spans whose request is on
	// the socket: the TCP server starts its handler from a bare context, so
	// the handler span adopts the oldest in-flight forward span as parent.
	inflight map[string][]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), inflight: map[string][]int64{}}
}

type spanKey struct{}

func (r *recorder) open(ctx context.Context, kind, role, method string, reqBytes int) (context.Context, span) {
	sp := span{ID: r.next.Add(1), Kind: kind, Role: role, Method: method, ReqBytes: reqBytes}
	parent, linked := ctx.Value(spanKey{}).(int64)
	sp.Parent = parent
	if kind == kindForward || (kind == kindHandler && !linked) {
		key := role + "\x00" + method
		r.mu.Lock()
		if kind == kindForward {
			r.inflight[key] = append(r.inflight[key], sp.ID)
		} else if q := r.inflight[key]; len(q) > 0 {
			sp.Parent, r.inflight[key] = q[0], q[1:]
		}
		r.mu.Unlock()
	}
	sp.Start = time.Since(r.epoch)
	return context.WithValue(ctx, spanKey{}, sp.ID), sp
}

func (r *recorder) close(sp span, respBytes int) {
	sp.End = time.Since(r.epoch)
	sp.RespBytes = respBytes
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// timed wraps a role handler (or a bridge forwarder) in a span.
func (r *recorder) timed(kind, role string, h transport.Handler) transport.Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		ctx, sp := r.open(ctx, kind, role, method, len(req))
		resp, err := h(ctx, method, req)
		r.close(sp, len(resp))
		return resp, err
	}
}

// root runs fn under a root span.
func (r *recorder) root(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, sp := r.open(ctx, kindRoot, "leader", name, 0)
	err := fn(ctx)
	r.close(sp, 0)
	return err
}

// spanCost measures what recording one span adds to the wall clock while
// `callers` goroutines record through one recorder at once, so it covers the
// recorder's mutex and in-flight queue under the workload's fan-out and the
// context allocation, not only the two clock reads. With bridged set each call
// records the pair the TCP bridge does: a forward span whose handler span
// starts from a bare context and finds its parent in the in-flight queue.
func spanCost(callers int, bridged bool) time.Duration {
	const callsEach = 4000
	noop := transport.Handler(func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	loop := func(h transport.Handler) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < callsEach; i++ {
					_, _ = h(context.Background(), "party.rankingBatch", nil)
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	rec, spansPerCall := newRecorder(), 1
	wrapped := rec.timed(kindHandler, "party/0", noop)
	if bridged {
		handler := wrapped
		wrapped = rec.timed(kindForward, "party/0", func(_ context.Context, method string, req []byte) ([]byte, error) {
			return handler(context.Background(), method, req)
		})
		spansPerCall = 2
	}
	return max(0, loop(wrapped)-loop(noop)) / time.Duration(callers*callsEach*spansPerCall)
}

// reset drops everything recorded so far (the warm-up selection).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func dumpSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the union of its
// children's intervals (clipped to the span), so concurrent children are not
// subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// rpcClass maps a wire method onto the ledger's RPC classes by prefix, so the
// ledger survives message renames inside a class.
func rpcClass(method string) string {
	switch {
	case strings.HasPrefix(method, "party.rank"):
		return "rank"
	case strings.HasPrefix(method, "party.encrypt"):
		return "encrypt"
	case strings.HasPrefix(method, "party.neighbor"):
		return "neighbor"
	case strings.HasPrefix(method, "agg."):
		return "agg"
	case strings.HasPrefix(method, "node."):
		return "counts"
	}
	return "other"
}

var rpcClasses = []string{"rank", "encrypt", "neighbor", "agg", "counts"}

// ledger folds the spans of `selections` traced selections into per-selection
// per-layer metrics. Times are busy time summed over roles (parties run
// concurrently, so the party sums may exceed the root's wall clock).
func ledger(spans []span, selections int) map[string]float64 {
	m := map[string]float64{}
	if selections == 0 {
		return m
	}
	per := 1 / float64(selections)
	self := selfTimes(spans)
	var roots []span
	for _, s := range spans {
		secs := s.dur().Seconds() * per
		switch s.Kind {
		case kindRoot:
			roots = append(roots, s)
			m["core.select_s"] += secs
			m["vfl.leader.self_s"] += self[s.ID].Seconds() * per
		case kindForward:
			m["transport.net_s"] += self[s.ID].Seconds() * per
			m["transport.calls"] += per
			m["transport.bytes"] += float64(s.ReqBytes+s.RespBytes) * per
		case kindHandler:
			class := rpcClass(s.Method)
			m["vfl.rpc.calls."+class] += per
			m["vfl.rpc.req_bytes."+class] += float64(s.ReqBytes) * per
			m["vfl.rpc.resp_bytes."+class] += float64(s.RespBytes) * per
			switch class {
			case "agg":
				m["vfl.agg.self_s"] += self[s.ID].Seconds() * per
			case "rank":
				m["vfl.party.rank_s"] += secs
				m["vfl.party.rank_calls"] += per
			case "encrypt":
				m["vfl.party.encrypt_s"] += secs
			case "neighbor":
				m["vfl.party.neighbor_s"] += secs
			}
		}
	}
	// Straggler ratio: within each selection, the busiest party's handler
	// time over the mean party's. Selections run one after another, so a
	// handler span belongs to the root whose interval contains it.
	for _, root := range roots {
		busy := map[string]time.Duration{}
		for _, s := range spans {
			if s.Kind == kindHandler && strings.HasPrefix(s.Role, "party/") && s.Start >= root.Start && s.End <= root.End {
				busy[s.Role] += s.dur()
			}
		}
		var sum, top time.Duration
		for _, d := range busy {
			sum += d
			top = max(top, d)
		}
		if sum > 0 {
			m["vfl.party.straggler_ratio"] += float64(top) * float64(len(busy)) / float64(sum) * per
		}
	}
	return m
}
