package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzWire is the make-check smoke target: arbitrary bytes must never panic
// the envelope check or the field decoder, and whatever decodes must
// re-encode canonically.
func FuzzWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x00, 0x01, 0x08, 0x01})
	// A bare body setting tags 1–7 once each: varint 3, zigzag -9, float
	// 2.5, blob "b", text "s", IDs {5, 1} and blobs {"x"}.
	seed, _ := hex.DecodeString("08031011190000000000000440220162" + "2a01733203020a073a03010178")
	f.Add(seed)
	f.Add(gobBlob)
	// A message followed by a cost trailer: the body decoder must skip it.
	base, _ := Marshal(&allFields{N: 7, S: "s"})
	f.Add(AppendTrailer(base, CostTag, &subFields{I: 3, F: 0.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = Unmarshal(data, &allFields{})
		var m allFields
		body := Fields{mode: decoding, d: decoder{data: data}}
		if err := body.decode(&m); err != nil {
			return // corrupt input rejected is fine; panics are not
		}
		// Canonical property: decode → encode → decode is a fixed point.
		raw, _ := Marshal(&m)
		var m2 allFields
		if err := Unmarshal(raw, &m2); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if raw2, _ := Marshal(&m2); !bytes.Equal(raw, raw2) {
			t.Fatalf("re-encode not canonical: %x vs %x", raw, raw2)
		}
	})
}

// FuzzVarint checks ConsumeUvarint total safety and round-trip identity.
func FuzzVarint(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(300))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, v uint64) {
		buf := AppendUvarint(nil, v)
		got, n, err := ConsumeUvarint(buf)
		if err != nil || got != v || n != len(buf) {
			t.Fatalf("round trip %d: got %d n=%d err=%v", v, got, n, err)
		}
	})
}

// FuzzZigzag checks the signed mapping is a bijection.
func FuzzZigzag(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(-1))
	f.Add(int64(1) << 62)
	f.Fuzz(func(t *testing.T, v int64) {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Fatalf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	})
}

// FuzzDeltaIDs feeds arbitrary bytes to the ID-list reader (no panics, no
// over-allocation) and checks accepted lists round-trip.
func FuzzDeltaIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendIDs(nil, []int{1, 2, 3}))
	f.Add(AppendIDs(nil, []int{1000, -4, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, n, err := ConsumeIDs(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf := AppendIDs(nil, ids)
		if sizeIDs(ids) != len(buf) {
			t.Fatalf("sizeIDs = %d, encoding is %d bytes", sizeIDs(ids), len(buf))
		}
		back, _, err := ConsumeIDs(buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back) != len(ids) {
			t.Fatalf("round trip length %d != %d", len(back), len(ids))
		}
		for i := range ids {
			if back[i] != ids[i] {
				t.Fatalf("id %d: %d != %d", i, back[i], ids[i])
			}
		}
	})
}
