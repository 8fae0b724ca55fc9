package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Message is a protocol struct that declares its v1 layout once, as a field
// table: one Fields call per field, in ascending tag order.
//
//	func (m *NeighborSumReq) Fields(f *wire.Fields) {
//		f.Int(1, &m.Query)
//		f.IDs(2, &m.PseudoIDs)
//	}
//
// Marshal and Unmarshal both derive from that table, so the two directions of
// a layout cannot drift apart.
type Message interface {
	Fields(f *Fields)
}

// Fields is one walk over a message's field table. Marshal walks it once,
// encoding: every entry appends its field unless the value is zero. Unmarshal
// walks it once per decoded field, and only the entry whose tag matches reads
// the value. So fields decode in any order, unknown tags (TraceTag among them)
// are skipped, a repeated field is last-wins, a wire-type mismatch is
// ErrWireType, and absent fields keep their values. Layout walks it once,
// listing the entries and touching no field.
type Fields struct {
	mode  fieldsMode
	e     encoder
	d     decoder
	table []Binding
}

type fieldsMode uint8

const (
	encoding fieldsMode = iota
	decoding
	listing
)

// Binding is one field-table entry, as Layout reports it.
type Binding struct {
	Tag  int
	Kind string // int, int64, bool, float64, string, bytes, ids, blobs or msg
	Ptr  any    // the bound field; for kind msg, the nested Message
}

// Layout lists m's field table in declaration order without reading or
// writing a field. Tests use it to check tags and render the tag table.
func Layout(m Message) []Binding {
	f := Fields{mode: listing}
	m.Fields(&f)
	return f.table
}

// decode runs m's table once per field of the decoder's body.
func (f *Fields) decode(m Message) error {
	for f.d.next() {
		m.Fields(f)
	}
	return f.d.err
}

// at reports whether the entry (tag, kind, p) reads the current field: only
// when decoding a field with this tag. Listing, it records the entry instead.
func (f *Fields) at(tag int, kind string, p any) bool {
	if f.mode == listing {
		f.table = append(f.table, Binding{tag, kind, p})
		return false
	}
	return f.d.tag == tag
}

// Int binds an int as a zigzag varint.
func (f *Fields) Int(tag int, p *int) {
	if f.mode == encoding {
		f.e.varint(tag, int64(*p))
	} else if f.at(tag, "int", p) {
		*p = int(f.d.varint())
	}
}

// Int64 binds an int64 as a zigzag varint.
func (f *Fields) Int64(tag int, p *int64) {
	if f.mode == encoding {
		f.e.varint(tag, *p)
	} else if f.at(tag, "int64", p) {
		*p = f.d.varint()
	}
}

// Bool binds a flag: omitted when false, the varint 1 when true.
func (f *Fields) Bool(tag int, p *bool) {
	if f.mode == encoding {
		if *p {
			f.e.varint(tag, 1)
		}
	} else if f.at(tag, "bool", p) {
		*p = f.d.varint() != 0
	}
}

// Float binds a float64 as its raw bits (a bit-exact round trip); it counts
// as 8 payload bytes.
func (f *Fields) Float(tag int, p *float64) {
	if f.mode == encoding {
		f.e.fixed(tag, *p)
	} else if f.at(tag, "float64", p) {
		*p = f.d.fixed()
	}
}

// String binds text: protocol metadata such as scheme names, so framing.
func (f *Fields) String(tag int, p *string) {
	if f.mode == encoding {
		f.e.text(tag, *p)
	} else if f.at(tag, "string", p) {
		*p = string(f.d.blob())
	}
}

// Bytes binds an opaque blob (key material, one ciphertext), counted as
// payload. A decoded blob aliases the input.
func (f *Fields) Bytes(tag int, p *[]byte) {
	if f.mode == encoding {
		f.e.blob(tag, *p)
	} else if f.at(tag, "bytes", p) {
		*p = f.d.blob()
	}
}

// IDs binds a delta-coded pseudo-ID list. ID lists are framing: they address
// payload, they aren't payload.
func (f *Fields) IDs(tag int, p *[]int) {
	if f.mode == encoding {
		f.e.ids(tag, *p)
	} else if f.at(tag, "ids", p) {
		*p = f.d.ids()
	}
}

// Blobs binds a length-prefixed blob list (a ciphertext vector): the content
// is payload, the prefixes framing. Decoded blobs alias the input.
func (f *Fields) Blobs(tag int, p *[][]byte) {
	if f.mode == encoding {
		f.e.blobs(tag, *p)
	} else if f.at(tag, "blobs", p) {
		*p = f.d.blobs()
	}
}

// Msg binds a nested message as a length-delimited sub-body of the same
// grammar; one that encodes to nothing is omitted. The sub-body is encoded in
// place and its length prefix inserted after, so nesting allocates nothing.
// A nested field that does not decode is ErrCorrupt, wrapping the cause.
func (f *Fields) Msg(tag int, m Message) {
	if f.mode == encoding {
		start := len(f.e.buf)
		f.e.key(tag, wtBytes)
		body := len(f.e.buf)
		m.Fields(f)
		if len(f.e.buf) == body {
			f.e.buf = f.e.buf[:start]
			return
		}
		var n [binary.MaxVarintLen64]byte
		f.e.buf = slices.Insert(f.e.buf, body, n[:binary.PutUvarint(n[:], uint64(len(f.e.buf)-body))]...)
	} else if f.at(tag, "msg", m) {
		outer := f.d
		f.d = decoder{data: outer.blob()}
		err := outer.err
		if err == nil {
			err = f.decode(m)
		}
		f.d = outer
		if err != nil {
			f.d.err = fmt.Errorf("%w: message at tag %d: %w", ErrCorrupt, tag, err)
		}
	}
}
