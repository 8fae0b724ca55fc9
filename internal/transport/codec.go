package transport

import (
	"context"
	"fmt"

	"vfps/internal/obs"
	"vfps/internal/wire"
)

// WireStats reports the byte breakdown of one encoded request, so callers
// can charge their side of the traffic to the cost model.
type WireStats struct {
	Payload int64 // value-content bytes (ciphertexts, keys, float scalars)
	Framing int64 // everything else: envelope, tags, length prefixes, ID lists
}

// CodecCaller layers message encoding over a Caller: encode the request,
// call, decode the response. It holds no per-peer state.
type CodecCaller struct {
	caller Caller
}

// NewCodecCaller wraps c.
func NewCodecCaller(c Caller) *CodecCaller { return &CodecCaller{caller: c} }

// Invoke encodes req, calls the method on peer, and decodes the response into
// resp. Either message may be nil: a nil req sends the bare envelope, a nil
// resp checks the response's envelope and discards its body. The returned
// WireStats cover the request encoding even when the call itself fails.
func (cc *CodecCaller) Invoke(ctx context.Context, peer, method string, req, resp wire.Message) (WireStats, error) {
	raw, payload := wire.Marshal(req)
	// The stats cover the message alone: like the cost trailer on the
	// response, the trace context below is observability overhead, not
	// protocol traffic, so an observed selection counts the same bytes as an
	// unobserved one.
	st := WireStats{Payload: payload, Framing: int64(len(raw)) - payload}
	// Inject the caller's trace context as a reserved trailing field of the
	// envelope, so the server parents its spans under the caller's across the
	// process boundary; peers that predate the field skip the unknown tag.
	if sc, ok := obs.SpanContextOf(ctx); ok {
		raw = wire.AppendTraceContext(raw, wire.TraceContext{
			Trace: [16]byte(sc.Trace),
			Span:  sc.Span,
			Query: obs.QueryIDFromContext(ctx),
		})
	}
	out, err := cc.caller.Call(ctx, peer, method, raw)
	if err != nil {
		return st, err
	}
	if err := wire.Unmarshal(out, resp); err != nil {
		return st, fmt.Errorf("transport: response from %s: %w", peer, err)
	}
	return st, nil
}
