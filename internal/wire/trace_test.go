package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	base, _ := Marshal(&allFields{N: 7})
	tc := TraceContext{Span: 0x1122334455667788, Query: "q-deadbeef"}
	for i := range tc.Trace {
		tc.Trace[i] = byte(i + 1)
	}
	raw := AppendTraceContext(append([]byte(nil), base...), tc)
	if bytes.Equal(raw, base) {
		t.Fatal("trace field was not appended")
	}

	// A v1 peer that predates the field must decode the message unchanged:
	// the reserved tag is skipped like any unknown field.
	var m allFields
	if err := Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding with trace field: %v", err)
	}
	if m.N != 7 {
		t.Fatalf("N = %d, want 7", m.N)
	}

	got, ok := ExtractTraceContext(raw)
	if !ok {
		t.Fatal("trace context not extracted")
	}
	if got != tc {
		t.Fatalf("extracted %+v, want %+v", got, tc)
	}

	// Empty query is valid: only trace/span propagate.
	tc.Query = ""
	raw = AppendTraceContext(append([]byte(nil), base...), tc)
	if got, ok := ExtractTraceContext(raw); !ok || got != tc {
		t.Fatalf("queryless context: ok=%v got=%+v", ok, got)
	}
}

func TestTraceContextNonEnvelopePayloadsUntouched(t *testing.T) {
	tc := TraceContext{Span: 1}
	tc.Trace[0] = 1

	// Bytes that do not open with the envelope magic must pass through
	// unchanged and extract nothing.
	if out := AppendTraceContext(append([]byte(nil), gobBlob...), tc); !bytes.Equal(out, gobBlob) {
		t.Fatal("non-envelope payload was modified")
	}
	if _, ok := ExtractTraceContext(gobBlob); ok {
		t.Fatal("extracted trace context from a non-envelope payload")
	}

	// A zero context is never appended.
	base, _ := Marshal(&allFields{N: 1})
	if out := AppendTraceContext(append([]byte(nil), base...), TraceContext{}); !bytes.Equal(out, base) {
		t.Fatal("zero context was appended")
	}
	if _, ok := ExtractTraceContext(base); ok {
		t.Fatal("extracted trace context from a payload without the field")
	}
}

func TestTraceContextMalformedFieldIgnored(t *testing.T) {
	base, _ := Marshal(&allFields{N: 1})
	// A trace field shorter than the fixed trace+span prefix must be
	// rejected quietly, not panic or misparse.
	raw := AppendUvarint(append([]byte(nil), base...), uint64(TraceTag)<<3|uint64(wtBytes))
	raw = AppendUvarint(raw, 5)
	raw = append(raw, 1, 2, 3, 4, 5)
	if _, ok := ExtractTraceContext(raw); ok {
		t.Fatal("extracted a truncated trace field")
	}
	// Truncated payloads of any shape report ok=false.
	for i := 0; i < len(raw); i++ {
		_, _ = ExtractTraceContext(raw[:i])
	}
}

// TestCostTrailerLayout pins the trailer idiom CostTag rides: the nested
// message follows the envelope's own fields under the two-byte key 8a 7d
// (2001<<3 | 2), a decoder whose table does not bind the tag skips it, and
// one that does reads it back. Non-envelope bytes and an empty message are
// left alone.
func TestCostTrailerLayout(t *testing.T) {
	base, _ := Marshal(&allFields{N: 7})
	raw := AppendTrailer(append([]byte(nil), base...), CostTag, &subFields{I: 3})
	if got, want := hex.EncodeToString(raw), "0001080e"+"8a7d"+"02"+"0806"; got != want {
		t.Fatalf("trailer-bearing envelope %s, want %s", got, want)
	}
	var m allFields
	if err := Unmarshal(raw, &m); err != nil || m.N != 7 {
		t.Fatalf("decoding past the trailer: %+v, %v", m, err)
	}
	var tail trailerOf
	if err := Unmarshal(raw, &tail); err != nil || tail.sub.I != 3 {
		t.Fatalf("reading the trailer: %+v, %v", tail, err)
	}
	if out := AppendTrailer(append([]byte(nil), gobBlob...), CostTag, &subFields{I: 3}); !bytes.Equal(out, gobBlob) {
		t.Fatal("non-envelope payload was modified")
	}
	if out := AppendTrailer(append([]byte(nil), base...), CostTag, &subFields{}); !bytes.Equal(out, base) {
		t.Fatal("an empty trailer was appended")
	}
}

// trailerOf binds a subFields at CostTag and nothing else.
type trailerOf struct{ sub subFields }

func (t *trailerOf) Fields(f *Fields) { f.Msg(CostTag, &t.sub) }
