package vfl

import (
	"vfps/internal/costmodel"
	"vfps/internal/obs"
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

// marshal encodes a response that is not charged to the cost counters (key
// material, the counters themselves).
func marshal(resp wire.Message) ([]byte, error) {
	raw, _ := wire.Marshal(resp)
	return raw, nil
}

// reply encodes resp and charges the encoded bytes — payload into BytesSent,
// the rest into FramingBytes — to the responder's counters along with the
// operation counts in extra.
func reply(resp wire.Message, counts *costmodel.Counts, ro *roleObs, extra costmodel.Raw) ([]byte, error) {
	raw, payload := wire.Marshal(resp)
	framing := int64(len(raw)) - payload
	extra.BytesSent += payload
	extra.FramingBytes += framing
	counts.Add(extra)
	ro.recordWire(payload, framing)
	return raw, nil
}
