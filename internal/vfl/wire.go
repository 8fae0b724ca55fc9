package vfl

import (
	"context"
	"fmt"

	"vfps/internal/costmodel"
	"vfps/internal/obs"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// metricWireBytes counts encoded protocol bytes split by share.
const metricWireBytes = "vfps_wire_bytes"

func declareWire(reg *obs.Registry) *obs.CounterVec {
	return reg.Counter(metricWireBytes,
		"Encoded protocol message bytes by share: payload is value content (ciphertext/key blobs, float scalars), framing is the wire overhead around it (envelope, field tags, length prefixes, pseudo-ID lists).",
		"kind")
}

// recordWire feeds one encoded message's byte split into the
// vfps_wire_bytes{kind} counters. No-op without a registry.
func (r *roleObs) recordWire(payload, framing int64) {
	reg := r.o.Load().Registry()
	if reg == nil {
		return
	}
	v := declareWire(reg)
	v.With("payload").Add(payload)
	v.With("framing").Add(framing)
}

// reply encodes resp and charges the encoded bytes — payload into BytesSent,
// the rest into FramingBytes — along with the operation counts in extra.
func (r *roleObs) reply(ctx context.Context, resp wire.Message, extra costmodel.Raw) ([]byte, error) {
	raw, payload := wire.Marshal(resp)
	framing := int64(len(raw)) - payload
	extra.BytesSent += payload
	extra.FramingBytes += framing
	r.charge(ctx, extra)
	r.recordWire(payload, framing)
	return raw, nil
}

// costedHandler wraps a role's method dispatch into its transport handler.
// Each call charges a fresh accumulator: the in-memory transport hands a
// handler its caller's ctx, whose accumulator would count the call twice. A
// served response carries what serving it cost — its own work and what its
// outbound calls reported — as its wire.CostTag trailer. Like the trace
// context, the trailer is not charged.
func costedHandler(dispatch transport.Handler) transport.Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		ctx, cost := costmodel.WithCounts(ctx)
		raw, err := dispatch(ctx, method, req)
		if err != nil {
			return nil, err
		}
		trailer := wireRaw(cost.Snapshot())
		return wire.AppendTrailer(raw, wire.CostTag, &trailer), nil
	}
}

// costed decodes a response together with its wire.CostTag trailer.
type costed struct {
	resp wire.Message
	cost wireRaw
}

func (c *costed) Fields(f *wire.Fields) {
	c.resp.Fields(f)
	f.Msg(wire.CostTag, &c.cost)
}

// call performs one outbound RPC. It charges the encoded request bytes to
// the caller — the Messages counter stays responder-side, so round trips are
// not double-counted — and adds the callee's cost trailer to ctx's
// accumulator alone, since the callee's counter holds that work already. A
// trailer that does not decode, or holds a negative count, fails the call
// with wire.ErrCorrupt.
func (r *roleObs) call(ctx context.Context, cc *transport.CodecCaller, node, method string, req, resp wire.Message) error {
	c := costed{resp: resp}
	stats, err := cc.Invoke(ctx, node, method, req, &c)
	r.charge(ctx, costmodel.Raw{BytesSent: stats.Payload, FramingBytes: stats.Framing})
	r.recordWire(stats.Payload, stats.Framing)
	if err != nil {
		return err
	}
	cost := costmodel.Raw(c.cost)
	if min(cost.DistanceFlops, cost.Encryptions, cost.Decryptions, cost.CipherAdds, cost.PlainAdds,
		cost.ItemsSent, cost.Messages, cost.BytesSent, cost.FramingBytes, cost.CacheHits, cost.CacheMisses) < 0 {
		return fmt.Errorf("%w: cost trailer from %s holds a negative count: %v", wire.ErrCorrupt, node, cost)
	}
	costmodel.Charge(ctx, cost)
	return nil
}
