package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	// Small absolute values must stay small on the wire.
	for v, want := range map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4} {
		if got := Zigzag(v); got != want {
			t.Errorf("Zigzag(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64} {
		buf := AppendUvarint(nil, v)
		got, n, err := ConsumeUvarint(buf)
		if err != nil || got != v || n != len(buf) {
			t.Errorf("ConsumeUvarint(AppendUvarint(%d)) = %d, %d, %v", v, got, n, err)
		}
		if uvarintLen(v) != len(buf) {
			t.Errorf("uvarintLen(%d) = %d, encoding is %d bytes", v, uvarintLen(v), len(buf))
		}
	}
	if _, _, err := ConsumeUvarint(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty uvarint: got %v, want ErrTruncated", err)
	}
	if _, _, err := ConsumeUvarint([]byte{0x80}); !errors.Is(err, ErrTruncated) {
		t.Errorf("cut uvarint: got %v, want ErrTruncated", err)
	}
	over := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := ConsumeUvarint(over); !errors.Is(err, ErrOverflow) {
		t.Errorf("wide uvarint: got %v, want ErrOverflow", err)
	}
}

func TestIDsRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{42},
		{1, 2, 3, 4, 5},
		{100, 90, 105, 3, -7},
		{-1, -2, -3},
		{math.MaxInt, math.MinInt, 0, math.MinInt, math.MaxInt},
	}
	for _, ids := range cases {
		buf := AppendIDs(nil, ids)
		if sizeIDs(ids) != len(buf) {
			t.Fatalf("sizeIDs(%v) = %d, encoding is %d bytes", ids, sizeIDs(ids), len(buf))
		}
		got, n, err := ConsumeIDs(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("ConsumeIDs(%v): n=%d err=%v", ids, n, err)
		}
		if len(ids) == 0 {
			if len(got) != 0 {
				t.Fatalf("ConsumeIDs(empty) = %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("ConsumeIDs = %v, want %v", got, ids)
		}
	}
}

func TestIDsSortedListEncodesOneByteDeltas(t *testing.T) {
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = 1000 + i // sorted, unit deltas
	}
	buf := AppendIDs(nil, ids)
	// count (1B) + first delta 1000 (2B) + 99 unit deltas (1B each).
	if want := 1 + 2 + 99; len(buf) != want {
		t.Fatalf("sorted id list took %d bytes, want %d", len(buf), want)
	}
}

func TestIDsCorruptCountRejected(t *testing.T) {
	// Count claims 1000 ids but only a few bytes follow.
	buf := AppendUvarint(nil, 1000)
	buf = append(buf, 1, 2, 3)
	if _, _, err := ConsumeIDs(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized id count: got %v, want ErrCorrupt", err)
	}
}

func TestBlobsRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{[]byte("a")},
		{[]byte(""), []byte("xy"), []byte("ciphertext")},
		{make([]byte, 127), make([]byte, 128), make([]byte, 16384)},
	}
	for _, blobs := range cases {
		buf := AppendBlobs(nil, blobs)
		if size, content := sizeBlobs(blobs); size != len(buf) || content != len(bytes.Join(blobs, nil)) {
			t.Fatalf("sizeBlobs = %d (%d content), encoding is %d bytes", size, content, len(buf))
		}
		got, n, err := ConsumeBlobs(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("ConsumeBlobs: n=%d err=%v", n, err)
		}
		if len(blobs) == 0 {
			if len(got) != 0 {
				t.Fatalf("ConsumeBlobs(empty) = %v", got)
			}
			continue
		}
		if len(got) != len(blobs) {
			t.Fatalf("ConsumeBlobs len = %d, want %d", len(got), len(blobs))
		}
		for i := range blobs {
			if !bytes.Equal(got[i], blobs[i]) {
				t.Fatalf("blob %d = %q, want %q", i, got[i], blobs[i])
			}
		}
	}
}

func TestBlobsCorruptLengthRejected(t *testing.T) {
	buf := AppendUvarint(nil, 1)  // one blob
	buf = AppendUvarint(buf, 100) // claiming 100 bytes
	buf = append(buf, 0xde, 0xad) // with 2 present
	if _, _, err := ConsumeBlobs(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized blob length: got %v, want ErrCorrupt", err)
	}
}

// allFields binds every field kind a table supports.
type allFields struct {
	N   int
	I   int64
	F   float64
	B   []byte
	S   string
	IDs []int
	BB  [][]byte
	Sub subFields
	On  bool
}

// subFields is allFields' nested message.
type subFields struct {
	I int64
	F float64
}

func (a *allFields) Fields(f *Fields) {
	f.Int(1, &a.N)
	f.Int64(2, &a.I)
	f.Float(3, &a.F)
	f.Bytes(4, &a.B)
	f.String(5, &a.S)
	f.IDs(6, &a.IDs)
	f.Blobs(7, &a.BB)
	f.Msg(8, &a.Sub)
	f.Bool(9, &a.On)
}

func (s *subFields) Fields(f *Fields) {
	f.Int64(1, &s.I)
	f.Float(2, &s.F)
}

func TestEncoderDecoderAllFields(t *testing.T) {
	in := &allFields{
		N:   77,
		I:   -12345,
		F:   3.14159,
		B:   []byte{0, 1, 2, 255},
		S:   "paillier",
		IDs: []int{9, 4, 11, 11, 2},
		BB:  [][]byte{[]byte("aa"), nil, []byte("c")},
		Sub: subFields{I: 8, F: -0.5},
		On:  true,
	}
	raw, payload := Marshal(in)
	var out allFields
	if err := Unmarshal(raw, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// Blob round trip normalises nil entries to empty; compare per field.
	if out.N != in.N || out.I != in.I || out.F != in.F || out.S != in.S || out.Sub != in.Sub || !out.On {
		t.Fatalf("scalars: got %+v", out)
	}
	if !bytes.Equal(out.B, in.B) || !reflect.DeepEqual(out.IDs, in.IDs) {
		t.Fatalf("slices: got %+v", out)
	}
	if len(out.BB) != 3 || !bytes.Equal(out.BB[0], []byte("aa")) || len(out.BB[1]) != 0 || !bytes.Equal(out.BB[2], []byte("c")) {
		t.Fatalf("blobs: got %v", out.BB)
	}
	// Payload tally: float 8 + bytes 4 + blobs 3 + nested float 8.
	if want := int64(8 + 4 + 3 + 8); payload != want {
		t.Fatalf("payload = %d, want %d", payload, want)
	}
	// A nested message with nothing set is omitted like any zero field.
	if raw, _ := Marshal(&allFields{}); len(raw) != 2 {
		t.Fatalf("zero message encodes as %x, want the bare envelope", raw)
	}
	// Layout lists the table in order, each entry bound to its own field.
	layout := Layout(in)
	if len(layout) != 9 || layout[0].Ptr != any(&in.N) || layout[7].Ptr != any(&in.Sub) || layout[8].Kind != "bool" {
		t.Fatalf("Layout = %+v", layout)
	}
}

func TestDecoderSkipsUnknownTags(t *testing.T) {
	// A future peer adds fields this build doesn't know: tags 10 (varint),
	// 11 (fixed64), 12 (bytes) and the trace tag must be skipped without
	// error. Tag 2 arrives again after them: fields decode in any order and
	// the last value wins. Fields absent from the body keep their values.
	raw, _ := Marshal(&allFields{N: 5, I: 1})
	e := encoder{buf: raw}
	e.varint(10, 123)
	e.fixed(11, 2.5)
	e.blob(12, []byte("future"))
	e.text(TraceTag, "not a trace context")
	e.varint(2, -3)
	out := allFields{S: "kept"}
	if err := Unmarshal(e.buf, &out); err != nil {
		t.Fatalf("Unmarshal with unknown tags: %v", err)
	}
	if out.N != 5 || out.I != -3 || out.S != "kept" {
		t.Fatalf("got %+v", out)
	}
}

func TestDecoderWireTypeMismatch(t *testing.T) {
	envelope, _ := Marshal(nil)
	flat := encoder{buf: append([]byte(nil), envelope...)}
	flat.varint(3, 9) // tag 3 is a float field in allFields, encoded as varint here
	var sub encoder
	sub.varint(2, 9) // likewise the nested message's float field
	nested := encoder{buf: append([]byte(nil), envelope...)}
	nested.blob(8, sub.buf)
	for name, raw := range map[string][]byte{"flat": flat.buf, "nested": nested.buf} {
		if err := Unmarshal(raw, &allFields{}); !errors.Is(err, ErrWireType) {
			t.Errorf("%s wire type mismatch: got %v, want ErrWireType", name, err)
		}
	}
	// A nested message that does not decode is also corrupt as a whole.
	if err := Unmarshal(nested.buf, &allFields{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nested wire type mismatch: got %v, want ErrCorrupt", err)
	}
}

// gobBlob is a real encoding/gob stream (struct{ Max uint64 }{1} with its
// type descriptor) — another encoding's bytes reaching this decoder. A gob
// stream never begins with 0x00, so it can never pass for an envelope.
var gobBlob = []byte{
	0x1a, 0x7f, 0x03, 0x01, 0x01, 0x05, 0x48, 0x65, 0x6c, 0x6c, 0x6f, 0x01, 0xff, 0x80, 0x00, 0x01,
	0x01, 0x01, 0x03, 0x4d, 0x61, 0x78, 0x01, 0x06, 0x00, 0x00, 0x00, 0x05, 0xff, 0x80, 0x01, 0x01, 0x00,
}

// TestUnmarshalRejectsNonEnvelope: what is not a v1 envelope is a typed
// error, never a guess at some other encoding.
func TestUnmarshalRejectsNonEnvelope(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":     nil,
		"gob":       gobBlob,
		"version 0": {envelopeMagic, 0},
	} {
		if err := Unmarshal(data, &allFields{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Unmarshal(%s) = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDetectMaxRejectsFutureVersion: a well-formed envelope of another
// version is the typed version error; one whose version varint is cut short
// is corrupt input.
func TestDetectMaxRejectsFutureVersion(t *testing.T) {
	future := AppendUvarint([]byte{envelopeMagic}, 7) // version-7 envelope
	var vErr *UnsupportedVersionError
	if err := Unmarshal(future, nil); !errors.As(err, &vErr) || vErr.Version != 7 || vErr.Max != Version {
		t.Fatalf("Unmarshal(v7) = %v, want UnsupportedVersionError{7, %d}", err, Version)
	}
	// Truncated envelope is a decode error.
	for _, data := range [][]byte{{envelopeMagic}, {envelopeMagic, 0x80}} {
		if err := Unmarshal(data, nil); !errors.Is(err, ErrTruncated) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Unmarshal(%x) = %v, want ErrCorrupt wrapping ErrTruncated", data, err)
		}
	}
}

func TestBinaryNilPayloadRoundTrip(t *testing.T) {
	raw, payload := Marshal(nil)
	if !bytes.Equal(raw, []byte{0x00, 0x01}) || payload != 0 {
		t.Fatalf("empty payload = %x (payload %d), want 0001", raw, payload)
	}
	if err := Unmarshal(raw, nil); err != nil {
		t.Fatalf("Unmarshal(empty, nil): %v", err)
	}
}

func TestMarshalMeasured(t *testing.T) {
	msg := &allFields{I: 4, B: []byte("key material"), BB: [][]byte{make([]byte, 100)}, F: 1.5}
	raw, payload := Marshal(msg)
	if want := int64(12 + 100 + 8); payload != want {
		t.Errorf("payload = %d, want %d", payload, want)
	}
	if int64(len(raw)) < payload {
		t.Errorf("raw %d shorter than payload %d", len(raw), payload)
	}
	var back allFields
	if err := Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(&back, msg) {
		t.Errorf("round trip = %+v, %v; want %+v", back, err, msg)
	}
}
