package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// encoder appends tagged fields to a buffer. Zero-valued fields are omitted
// entirely — a decoder leaves absent fields as they are — which keeps small
// requests at a handful of bytes.
//
// The encoder also tallies payload bytes: the value content a message
// fundamentally has to move (ciphertext and key blobs, 8 bytes per float
// scalar). Everything else — keys, length prefixes, ID lists, the envelope —
// is framing. The costmodel splits BytesSent/FramingBytes along exactly this
// line.
type encoder struct {
	buf     []byte
	payload int64
}

func (e *encoder) key(tag, wt int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(tag)<<3|uint64(wt))
}

// varint encodes a signed field as a zigzag varint; zero is omitted.
func (e *encoder) varint(tag int, v int64) {
	if v == 0 {
		return
	}
	e.key(tag, wtVarint)
	e.buf = binary.AppendUvarint(e.buf, Zigzag(v))
}

// fixed encodes a float64 as its raw bits; +0 is omitted. Counted as 8
// payload bytes.
func (e *encoder) fixed(tag int, v float64) {
	bits := math.Float64bits(v)
	if bits == 0 {
		return
	}
	e.key(tag, wtFixed64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
	e.payload += 8
}

// blob encodes an opaque blob; empty is omitted. Counted as payload.
func (e *encoder) blob(tag int, b []byte) {
	if len(b) == 0 {
		return
	}
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	e.payload += int64(len(b))
}

// text encodes a string; empty is omitted. Counted as framing.
func (e *encoder) text(tag int, s string) {
	if s == "" {
		return
	}
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// vector opens a length-delimited field whose body is bodyLen bytes, growing
// the buffer once for key, length prefix and body.
func (e *encoder) vector(tag, bodyLen int) {
	e.buf = slices.Grow(e.buf, 2*binary.MaxVarintLen64+bodyLen)
	e.key(tag, wtBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(bodyLen))
}

// ids encodes a delta-coded pseudo-ID list; empty is omitted.
func (e *encoder) ids(tag int, ids []int) {
	if len(ids) == 0 {
		return
	}
	e.vector(tag, sizeIDs(ids))
	e.buf = AppendIDs(e.buf, ids)
}

// blobs encodes a length-prefixed blob list; empty is omitted. Blob content
// counts as payload, the prefixes as framing.
func (e *encoder) blobs(tag int, blobs [][]byte) {
	if len(blobs) == 0 {
		return
	}
	body, content := sizeBlobs(blobs)
	e.vector(tag, body)
	e.buf = AppendBlobs(e.buf, blobs)
	e.payload += int64(content)
}

// decoder walks the tagged fields of one body with a sticky error. next
// consumes a whole field per step, so a field that no table entry reads is
// skipped: that is the forward-compatibility contract. The typed readers
// check the wire type and poison the decoder with ErrWireType on a mismatch.
// Returned slices alias the input buffer.
type decoder struct {
	data []byte
	pos  int
	err  error

	tag int // of the field read by the last next
	wt  int
	u   uint64 // varint / fixed64 raw value
	b   []byte // length-delimited value
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// next advances to the next field, consuming its value. It returns false at
// end of input or on error.
func (d *decoder) next() bool {
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

func (d *decoder) want(wt int) bool {
	if d.err != nil {
		return false
	}
	if d.wt != wt {
		d.fail(fmt.Errorf("%w: tag %d has wire type %d, want %d", ErrWireType, d.tag, d.wt, wt))
		return false
	}
	return true
}

// varint reads the current field as a zigzag varint.
func (d *decoder) varint() int64 {
	if !d.want(wtVarint) {
		return 0
	}
	return Unzigzag(d.u)
}

// fixed reads the current field as a fixed64 float.
func (d *decoder) fixed() float64 {
	if !d.want(wtFixed64) {
		return 0
	}
	return math.Float64frombits(d.u)
}

// blob reads the current field as length-delimited bytes.
func (d *decoder) blob() []byte {
	if !d.want(wtBytes) {
		return nil
	}
	return d.b
}

// ids reads the current field as a delta-coded pseudo-ID list.
func (d *decoder) ids() []int {
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

// blobs reads the current field as a length-prefixed blob list.
func (d *decoder) blobs() [][]byte {
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
