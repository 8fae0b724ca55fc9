package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Message is a protocol struct that knows its own v1 field layout. Encoding
// cannot fail (MarshalWire only appends); decoding returns the decoder's
// sticky error.
type Message interface {
	MarshalWire(e *Encoder)
	UnmarshalWire(d *Decoder) error
}

// Encoder appends tagged fields to a buffer. Zero-valued fields are omitted
// entirely — decoders default absent fields to zero — which keeps small
// requests at a handful of bytes.
//
// The encoder also tallies payload bytes: the value content a message
// fundamentally has to move (ciphertext and key blobs, 8 bytes per float
// scalar). Everything else — keys, length prefixes, ID lists, the envelope —
// is framing. The costmodel splits BytesSent/FramingBytes along exactly this
// line.
type Encoder struct {
	buf     []byte
	payload int64
}

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Payload returns the value-content byte tally (see type comment).
func (e *Encoder) Payload() int64 { return e.payload }

func (e *Encoder) key(tag, wt int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(tag)<<3|uint64(wt))
}

// Uint encodes an unsigned field; zero is omitted.
func (e *Encoder) Uint(tag int, v uint64) {
	if v == 0 {
		return
	}
	e.key(tag, wtVarint)
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int encodes a signed field as a zigzag varint; zero is omitted.
func (e *Encoder) Int(tag int, v int64) {
	if v == 0 {
		return
	}
	e.key(tag, wtVarint)
	e.buf = binary.AppendUvarint(e.buf, Zigzag(v))
}

// Float encodes a float64 as its raw bits (bit-exact round trip); +0 is
// omitted. Counted as 8 payload bytes.
func (e *Encoder) Float(tag int, v float64) {
	bits := math.Float64bits(v)
	if bits == 0 {
		return
	}
	e.key(tag, wtFixed64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
	e.payload += 8
}

// Bytes encodes an opaque blob (key material, a single ciphertext); empty is
// omitted. Counted as payload.
func (e *Encoder) Bytes(tag int, b []byte) {
	if len(b) == 0 {
		return
	}
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	e.payload += int64(len(b))
}

// String encodes a text field (scheme names and such — protocol metadata,
// so framing, not payload); empty is omitted.
func (e *Encoder) String(tag int, s string) {
	if s == "" {
		return
	}
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// vector opens a length-delimited field whose body is bodyLen bytes, growing
// the buffer once for key, length prefix and body.
func (e *Encoder) vector(tag, bodyLen int) {
	e.buf = slices.Grow(e.buf, 2*binary.MaxVarintLen64+bodyLen)
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(bodyLen))
}

// IDs encodes a delta-coded pseudo-ID list; empty is omitted. ID lists are
// framing: they address payload, they aren't payload.
func (e *Encoder) IDs(tag int, ids []int) {
	if len(ids) == 0 {
		return
	}
	e.vector(tag, sizeIDs(ids))
	e.buf = AppendIDs(e.buf, ids)
}

// Blobs encodes a length-prefixed blob list (ciphertext vectors); empty is
// omitted. Blob content counts as payload, the prefixes as framing.
func (e *Encoder) Blobs(tag int, blobs [][]byte) {
	if len(blobs) == 0 {
		return
	}
	body, content := sizeBlobs(blobs)
	e.vector(tag, body)
	e.buf = AppendBlobs(e.buf, blobs)
	e.payload += int64(content)
}

// Msg encodes a nested message as a length-delimited sub-body; a nested
// message that encodes to nothing (all zero fields) is omitted.
func (e *Encoder) Msg(tag int, m Message) {
	if m == nil {
		return
	}
	var child Encoder
	m.MarshalWire(&child)
	if len(child.buf) == 0 {
		return
	}
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(child.buf)))
	e.buf = append(e.buf, child.buf...)
	e.payload += child.payload
}

// Decoder walks tagged fields with a sticky error. The idiomatic loop:
//
//	for d.Next() {
//		switch d.Tag() {
//		case 1: r.Query = int(d.Int())
//		case 2: r.Ciphers = d.Blobs()
//		}
//	}
//	return d.Err()
//
// Next consumes a whole field each step, so unknown tags are skipped simply
// by not reading them — that is the forward-compatibility contract. Typed
// accessors check the wire type and poison the decoder on mismatch. Returned
// slices alias the input buffer.
type Decoder struct {
	data []byte
	pos  int
	err  error

	tag int
	wt  int
	u   uint64 // varint / fixed64 raw value
	b   []byte // length-delimited value
}

// NewDecoder decodes the given body (envelope already stripped).
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Tag returns the tag of the field read by the last Next.
func (d *Decoder) Tag() int { return d.tag }

// Next advances to the next field, consuming its value. It returns false at
// end of input or on error (check Err).
func (d *Decoder) Next() bool {
	if d.err != nil || d.pos >= len(d.data) {
		return false
	}
	key, n, err := ConsumeUvarint(d.data[d.pos:])
	if err != nil {
		d.fail(err)
		return false
	}
	d.pos += n
	d.tag = int(key >> 3)
	d.wt = int(key & 7)
	d.b = nil
	switch d.wt {
	case wtVarint:
		v, n, err := ConsumeUvarint(d.data[d.pos:])
		if err != nil {
			d.fail(err)
			return false
		}
		d.pos += n
		d.u = v
	case wtFixed64:
		if len(d.data)-d.pos < 8 {
			d.fail(ErrTruncated)
			return false
		}
		d.u = binary.LittleEndian.Uint64(d.data[d.pos:])
		d.pos += 8
	case wtBytes:
		size, n, err := ConsumeUvarint(d.data[d.pos:])
		if err != nil {
			d.fail(err)
			return false
		}
		d.pos += n
		if size > uint64(len(d.data)-d.pos) {
			d.fail(fmt.Errorf("%w: field length %d exceeds %d remaining bytes", ErrCorrupt, size, len(d.data)-d.pos))
			return false
		}
		d.b = d.data[d.pos : d.pos+int(size) : d.pos+int(size)]
		d.pos += int(size)
	default:
		d.fail(fmt.Errorf("%w: wire type %d for tag %d", ErrCorrupt, d.wt, d.tag))
		return false
	}
	return true
}

func (d *Decoder) want(wt int) bool {
	if d.err != nil {
		return false
	}
	if d.wt != wt {
		d.fail(fmt.Errorf("%w: tag %d has wire type %d, want %d", ErrWireType, d.tag, d.wt, wt))
		return false
	}
	return true
}

// Uint reads the current field as an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if !d.want(wtVarint) {
		return 0
	}
	return d.u
}

// Int reads the current field as a zigzag varint.
func (d *Decoder) Int() int64 {
	if !d.want(wtVarint) {
		return 0
	}
	return Unzigzag(d.u)
}

// Float reads the current field as a fixed64 float.
func (d *Decoder) Float() float64 {
	if !d.want(wtFixed64) {
		return 0
	}
	return math.Float64frombits(d.u)
}

// Bytes reads the current field as an opaque blob (aliases the input).
func (d *Decoder) Bytes() []byte {
	if !d.want(wtBytes) {
		return nil
	}
	return d.b
}

// String reads the current field as text.
func (d *Decoder) String() string {
	if !d.want(wtBytes) {
		return ""
	}
	return string(d.b)
}

// IDs reads the current field as a delta-coded pseudo-ID list.
func (d *Decoder) IDs() []int {
	if !d.want(wtBytes) {
		return nil
	}
	ids, n, err := ConsumeIDs(d.b)
	if err != nil {
		d.fail(err)
		return nil
	}
	if n != len(d.b) {
		d.fail(fmt.Errorf("%w: %d trailing bytes after id list", ErrCorrupt, len(d.b)-n))
		return nil
	}
	return ids
}

// Blobs reads the current field as a length-prefixed blob list.
func (d *Decoder) Blobs() [][]byte {
	if !d.want(wtBytes) {
		return nil
	}
	blobs, n, err := ConsumeBlobs(d.b)
	if err != nil {
		d.fail(err)
		return nil
	}
	if n != len(d.b) {
		d.fail(fmt.Errorf("%w: %d trailing bytes after blob list", ErrCorrupt, len(d.b)-n))
		return nil
	}
	return blobs
}

// Msg decodes the current field as a nested message.
func (d *Decoder) Msg(m Message) {
	if !d.want(wtBytes) {
		return
	}
	if err := m.UnmarshalWire(NewDecoder(d.b)); err != nil {
		d.fail(err)
	}
}
