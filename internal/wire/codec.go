package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// envelopeMagic opens every binary-codec payload. Gob streams always start
// with a non-zero segment length, so the first byte alone separates the two
// codecs.
const envelopeMagic = 0x00

// MaxVersion is the newest binary protocol version this build speaks.
// Version 0 is reserved to mean "gob" in negotiation.
const MaxVersion uint64 = 1

// Codec serialises protocol messages. Implementations are stateless and safe
// for concurrent use.
type Codec interface {
	// Name is the knob value: "gob" or "binary".
	Name() string
	// Version is the negotiation number: 0 for gob, ≥1 for binary formats.
	Version() uint64
	// Marshal encodes v. A nil v yields the codec's empty payload (nil for
	// gob, a bare envelope for binary) so responses mirror the request
	// codec even for body-less methods.
	Marshal(v any) ([]byte, error)
	// Unmarshal decodes data produced by the same codec into v (a pointer).
	// A nil v discards the payload.
	Unmarshal(data []byte, v any) error
}

var (
	gobC    Codec = gobCodec{}
	binaryC Codec = binaryCodec{}
)

// Gob returns the compatibility codec wrapping encoding/gob.
func Gob() Codec { return gobC }

// Binary returns the v1 compact binary codec.
func Binary() Codec { return binaryC }

// ByName resolves a codec knob value ("gob" or "binary").
func ByName(name string) (Codec, error) {
	switch name {
	case "gob":
		return gobC, nil
	case "binary":
		return binaryC, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (want gob or binary)", name)
	}
}

// ForVersion resolves a negotiated protocol version to its codec.
func ForVersion(v uint64) (Codec, error) {
	switch v {
	case 0:
		return gobC, nil
	case 1:
		return binaryC, nil
	default:
		return nil, &UnsupportedVersionError{Version: v, Max: MaxVersion}
	}
}

// Detect sniffs the codec of a payload accepting any version this build
// speaks. See DetectMax.
func Detect(data []byte) (Codec, error) { return DetectMax(data, MaxVersion) }

// DetectMax sniffs the codec of a payload, accepting binary envelopes up to
// the given version. Empty payloads and anything not starting with the
// envelope magic are gob (body-less methods send nil). An envelope from a
// newer version returns *UnsupportedVersionError — servers pass their own
// configured version so future formats are rejected, not misparsed.
func DetectMax(data []byte, maxVersion uint64) (Codec, error) {
	if len(data) == 0 || data[0] != envelopeMagic {
		return gobC, nil
	}
	v, _, err := ConsumeUvarint(data[1:])
	if err != nil {
		return nil, fmt.Errorf("wire: envelope: %w", err)
	}
	if v == 0 {
		return nil, fmt.Errorf("%w: envelope version 0", ErrCorrupt)
	}
	if v > maxVersion || v > MaxVersion {
		return nil, &UnsupportedVersionError{Version: v, Max: min(maxVersion, MaxVersion)}
	}
	return binaryC, nil
}

// Unmarshal decodes a payload whose codec is unknown, sniffing the envelope.
func Unmarshal(data []byte, v any) error {
	c, err := Detect(data)
	if err != nil {
		return err
	}
	return c.Unmarshal(data, v)
}

// MarshalMeasured encodes v with the codec and also reports the payload
// share: the value-content bytes (ciphertext/key blobs, 8 per float scalar)
// out of len(raw). The remainder is framing — envelope, field keys, length
// prefixes, ID lists, and for gob its type descriptors. costmodel charges
// the two shares to BytesSent and FramingBytes respectively.
//
// On the binary codec the bytes and the tally come out of one Encoder pass.
// Gob has no tally of its own, so a gob message is encoded a second time on
// the binary layout only to be measured.
func MarshalMeasured(c Codec, v any) (raw []byte, payload int64, err error) {
	if _, ok := c.(binaryCodec); ok {
		e, err := encodeBinary(v)
		return e.buf, e.payload, err
	}
	raw, err = c.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	if m, ok := v.(Message); ok && v != nil {
		var e Encoder
		m.MarshalWire(&e)
		payload = e.Payload()
		if payload > int64(len(raw)) {
			// Defensive: framing must never go negative (cannot happen —
			// payload counts a subset of the encoded content under both
			// codecs, and gob encodes values wider than the binary codec).
			payload = int64(len(raw))
		}
	}
	return raw, payload, nil
}

// gobCodec wraps encoding/gob, the pre-wire format, behind the Codec
// interface. Version 0.
type gobCodec struct{}

func (gobCodec) Name() string    { return "gob" }
func (gobCodec) Version() uint64 { return 0 }

func (gobCodec) Marshal(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: gob encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func (gobCodec) Unmarshal(data []byte, v any) error {
	if v == nil {
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("wire: gob decoding %T: %w", v, err)
	}
	return nil
}

// binaryCodec is format v1: envelope + tagged compact fields.
type binaryCodec struct{}

func (binaryCodec) Name() string    { return "binary" }
func (binaryCodec) Version() uint64 { return 1 }

func (binaryCodec) Marshal(v any) ([]byte, error) {
	e, err := encodeBinary(v)
	return e.buf, err
}

// encodeBinary is the one v1 encoding pass: envelope, then the message's
// fields. The returned encoder holds the bytes and their payload tally.
func encodeBinary(v any) (Encoder, error) {
	// Requests are mostly a few scalars: start with room for them.
	buf := append(make([]byte, 0, 32), envelopeMagic)
	e := Encoder{buf: binary.AppendUvarint(buf, MaxVersion)}
	if v == nil {
		return e, nil
	}
	m, ok := v.(Message)
	if !ok {
		return Encoder{}, fmt.Errorf("wire: %T does not implement wire.Message", v)
	}
	m.MarshalWire(&e)
	return e, nil
}

func (binaryCodec) Unmarshal(data []byte, v any) error {
	if len(data) == 0 || data[0] != envelopeMagic {
		return fmt.Errorf("%w: missing binary envelope", ErrCorrupt)
	}
	ver, n, err := ConsumeUvarint(data[1:])
	if err != nil {
		return fmt.Errorf("wire: envelope: %w", err)
	}
	if ver != 1 {
		return &UnsupportedVersionError{Version: ver, Max: MaxVersion}
	}
	if v == nil {
		return nil
	}
	m, ok := v.(Message)
	if !ok {
		return fmt.Errorf("wire: %T does not implement wire.Message", v)
	}
	if err := m.UnmarshalWire(NewDecoder(data[1+n:])); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", v, err)
	}
	return nil
}

// ---- version negotiation -------------------------------------------------
//
// Clients preferring the binary codec probe each peer once with a hello
// call; the peer answers with min(its version, the client's). A peer that
// does not serve hello at all (a pre-wire build) is assumed gob. Both hello
// messages are always framed as binary v1 regardless of either side's
// configured codec — the handshake is the bootstrap layer and every build
// that serves it speaks v1 framing.

// HelloMethod is the reserved method name for the negotiation probe.
const HelloMethod = "wire.hello"

// Hello is the probe: the caller's newest supported version.
type Hello struct{ Max uint64 }

// MarshalWire implements Message. Field 1: max version (uvarint).
func (h *Hello) MarshalWire(e *Encoder) { e.Uint(1, h.Max) }

// UnmarshalWire implements Message.
func (h *Hello) UnmarshalWire(d *Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			h.Max = d.Uint()
		}
	}
	return d.Err()
}

// HelloAck is the answer: the version the peer commits to for this caller
// (0 = gob).
type HelloAck struct{ Version uint64 }

// MarshalWire implements Message. Field 1: negotiated version (uvarint).
func (a *HelloAck) MarshalWire(e *Encoder) { e.Uint(1, a.Version) }

// UnmarshalWire implements Message.
func (a *HelloAck) UnmarshalWire(d *Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			a.Version = d.Uint()
		}
	}
	return d.Err()
}

// MarshalHello encodes the probe for the given preferred version.
func MarshalHello(maxVersion uint64) []byte {
	raw, err := binaryC.Marshal(&Hello{Max: maxVersion})
	if err != nil { // cannot happen: Hello implements Message
		panic(err)
	}
	return raw
}

// ParseHelloAck extracts the committed version from a hello response.
func ParseHelloAck(raw []byte) (uint64, error) {
	var a HelloAck
	if err := binaryC.Unmarshal(raw, &a); err != nil {
		return 0, fmt.Errorf("wire: hello ack: %w", err)
	}
	return a.Version, nil
}

// HandleHello serves the negotiation probe for a node whose configured codec
// has the given version (0 when the node is configured for gob).
func HandleHello(req []byte, localVersion uint64) ([]byte, error) {
	var h Hello
	if err := binaryC.Unmarshal(req, &h); err != nil {
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	return binaryC.Marshal(&HelloAck{Version: min(h.Max, localVersion)})
}
