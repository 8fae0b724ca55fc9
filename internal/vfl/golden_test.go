package vfl

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vfps/internal/he"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// allMessages returns one fully-populated instance of every protocol message.
// Round-trip and measurement tests iterate this list so a new message type
// that forgets its wire methods fails to compile here first.
func allMessages() []wire.Message {
	return []wire.Message{
		&PublicKeyResp{Scheme: "paillier", Key: []byte{1, 2, 3}},
		&PrivateKeyResp{Scheme: "paillier", Key: []byte{4, 5, 6, 7}},
		&RankingBatchReq{Query: 3, Offset: 64, Count: 32},
		&RankingBatchResp{PseudoIDs: []int{9, 4, 17, 16}}, // unsorted: negative deltas
		&EncryptAllReq{Query: 12, PackBits: 40, NoCache: true},
		&EncryptAllResp{PseudoIDs: []int{1, 2, 3}, Ciphers: [][]byte{{0xde, 0xad}, {0xbe}}, PackFactor: 2,
			PackBits: 36, NeedBits: 30, CachedBlocks: []int{0, 2}},
		&EncryptCandidatesReq{Query: 5, PseudoIDs: []int{100, 7}, PackBits: 20, NoCache: true},
		&EncryptCandidatesResp{Ciphers: [][]byte{{1}, {2, 3}}, PackFactor: 1,
			NeedBits: 18, CachedBlocks: []int{1}},
		&NeighborSumReq{Query: 2, PseudoIDs: []int{8, 3, 11}},
		&NeighborSumResp{Sum: -2.25},
		&wireRaw{DistanceFlops: 1, Encryptions: 2, Decryptions: 3, CipherAdds: 4,
			PlainAdds: 5, ItemsSent: 6, Messages: 7, BytesSent: 8, FramingBytes: 9,
			CacheHits: 10, CacheMisses: 11},
		&EncryptRankScoreReq{Query: 1, Rank: 9},
		&EncryptRankScoreResp{Cipher: []byte{5, 6}},
		&AggregateCandidatesReq{Query: 4, PseudoIDs: []int{2, 1}, NoCache: true, Round: 3},
		&AggregateCandidatesResp{Aggregated: [][]byte{{9}}, PackFactor: 3,
			PackBits: 36, PackAdds: 3},
		&AggregateFrontierReq{Query: 6, Rank: 2},
		&AggregateFrontierResp{Cipher: []byte{7}},
		&CollectAllReq{Query: 8, NoCache: true, Round: 2},
		&CollectAllResp{PseudoIDs: []int{0, 5}, Aggregated: [][]byte{{1, 1}, {2, 2}}, PackFactor: 1,
			PackBits: 36, PackAdds: 3},
		&FaginCollectReq{Query: 7, K: 10, Batch: 32, NoCache: true, Round: 5},
		&FaginCollectResp{PseudoIDs: []int{3, 1}, Aggregated: [][]byte{{4}}, PackFactor: 2,
			Stats: FaginStats{Rounds: 2, ScanDepth: 64, Candidates: 9}},
		&FaginCollectResp{PseudoIDs: []int{3, 1}, PackFactor: 2, PackBits: 40, PackAdds: 4,
			Stats: FaginStats{Rounds: 1, ScanDepth: 8, Candidates: 2}},
	}
}

// TestGoldenVectors pins the v1 byte layout of representative messages. These
// bytes are the protocol: if any vector changes, that is a wire format break
// and needs a version bump, not a test update.
func TestGoldenVectors(t *testing.T) {
	vectors := []struct {
		msg     wire.Message
		hex     string
		payload int64
	}{
		// Envelope 00 01, then zigzag varints: 7→0e, 10→14, 32→40.
		{&FaginCollectReq{Query: 7, K: 10, Batch: 32}, "0001080e10141840", 0},
		// The leader-round number rides at tag 8 (key 40): round 3 → 06.
		{&FaginCollectReq{Query: 7, K: 10, Batch: 32, Round: 3}, "0001080e101418404006", 0},
		// Zero-valued fields are omitted entirely: bare envelope.
		{&CollectAllReq{}, "0001", 0},
		// Delta-coded ID list: count 3, deltas +5, -2, +9 (zigzag 0a 03 12).
		{&RankingBatchResp{PseudoIDs: []int{5, 3, 12}}, "00010a04030a0312", 0},
		// Float64 1.5 as fixed64 little-endian bits; 8 payload bytes.
		{&NeighborSumResp{Sum: 1.5}, "000109000000000000f83f", 8},
		// Blob list: count 2, (len 2, aa bb), (len 1, cc); pack factor 2.
		{&EncryptCandidatesResp{Ciphers: [][]byte{{0xaa, 0xbb}, {0xcc}}, PackFactor: 2},
			"00010a060202aabb01cc1004", 3},
		// String field: length-prefixed UTF-8, counted as framing.
		{&PublicKeyResp{Scheme: "plain"}, "00010a05706c61696e", 0},
		// Operation counts, the body of every response's cost trailer.
		{&wireRaw{Encryptions: 3, BytesSent: 500}, "0001100640e807", 0},
		// IDs + pack factor + nested FaginStats, blob field absent.
		{&FaginCollectResp{PseudoIDs: []int{1}, PackFactor: 1, Stats: FaginStats{Rounds: 2}},
			"00010a020102180222020804", 0},
		// No-cache request flag: a boolean encodes as varint 1 when set and
		// is omitted when clear (legacy peers skip the unknown tags). The
		// retired delta flag's tag stays unbound before it, and a TA request
		// ends at its candidate list (tag 3, the retired adaptive flag, is
		// never sent).
		{&EncryptAllReq{Query: 12, PackBits: 40, NoCache: true},
			"0001081810502002", 0},
		{&AggregateCandidatesReq{Query: 4, PseudoIDs: []int{2, 1}},
			"000108081203020401", 0},
		// Delta response: a withheld block rides as a 0-length blob
		// placeholder and its index appears in the CachedBlocks ID list.
		{&EncryptAllResp{PseudoIDs: []int{4, 9}, Ciphers: [][]byte{{0xaa}, {}}, PackFactor: 2,
			PackBits: 36, NeedBits: 33, CachedBlocks: []int{1}},
			"00010a0302080a12040201aa0018042048284232020102", 1},
		// Geometry-only response: IDs, pack factor, pack bits, pack adds.
		{&CollectAllResp{PseudoIDs: []int{2}, PackFactor: 2, PackBits: 36, PackAdds: 3},
			"00010a020104180420482806", 0},
		// Cross-round cache counters ride the same body.
		{&wireRaw{CacheHits: 2, CacheMisses: 1}, "000150045802", 0},
	}
	for _, v := range vectors {
		want, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		raw, payload := wire.Marshal(v.msg)
		if !bytes.Equal(raw, want) {
			t.Errorf("%T encodes as %x, golden vector is %s", v.msg, raw, v.hex)
		}
		if payload != v.payload {
			t.Errorf("%T payload = %d, want %d", v.msg, payload, v.payload)
		}
		// The vector must also decode back to the original message.
		back := reflect.New(reflect.TypeOf(v.msg).Elem()).Interface().(wire.Message)
		if err := wire.Unmarshal(want, back); err != nil {
			t.Fatalf("%T: decoding golden vector: %v", v.msg, err)
		}
		if !reflect.DeepEqual(v.msg, back) {
			t.Errorf("%T golden vector decodes to %+v, want %+v", v.msg, back, v.msg)
		}
	}
}

// TestWireRoundTripAllMessages round-trips every protocol message and
// requires exact equality.
func TestWireRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMessages() {
		raw, _ := wire.Marshal(msg)
		back := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wire.Message)
		if err := wire.Unmarshal(raw, back); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Errorf("%T: round trip %+v -> %+v", msg, back, msg)
		}
	}
}

// TestMarshalMeasuredBreakdown checks the payload/framing split Marshal
// reports: payload (blob content plus 8 bytes per float scalar) never exceeds
// the encoding, and framing is never less than the envelope.
func TestMarshalMeasuredBreakdown(t *testing.T) {
	for _, msg := range allMessages() {
		raw, payload := wire.Marshal(msg)
		if payload < 0 || payload > int64(len(raw)) {
			t.Errorf("%T: payload %d outside [0, %d]", msg, payload, len(raw))
		}
		// framing = len(raw) - payload; the envelope alone is 2 bytes.
		if int64(len(raw))-payload < 2 {
			t.Errorf("%T: framing %d < envelope size", msg, int64(len(raw))-payload)
		}
	}
}

// TestMarshalMeasuredEncodesOnce pins Marshal's single pass: a megabyte
// ciphertext response is measured and encoded into one buffer sized to it —
// no second encoding for the tally, no temporary blob body.
func TestMarshalMeasuredEncodesOnce(t *testing.T) {
	ciphers := make([][]byte, 4096)
	for i := range ciphers {
		ciphers[i] = bytes.Repeat([]byte{byte(i)}, 256)
	}
	msg := &EncryptCandidatesResp{Ciphers: ciphers, PackFactor: 3, PackBits: 36, NeedBits: 30, CachedBlocks: []int{1, 7}}
	raw, payload := wire.Marshal(msg)
	if payload != 4096*256 {
		t.Fatalf("payload = %d, want %d", payload, 4096*256)
	}
	// 4096 two-byte blob prefixes, the envelope and a few scalar fields.
	if framing := int64(len(raw)) - payload; framing < 2 || framing > 2*4096+64 {
		t.Fatalf("framing = %d bytes of %d", framing, len(raw))
	}
	allocated := func(f func()) float64 {
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	perRun := allocated(func() { wire.Marshal(msg) })
	// One buffer of len(raw) — or what growing to it costs in this build:
	// under -race the compiler materialises slices.Grow's temporary.
	oneBuffer := max(float64(len(raw)), allocated(func() {
		_ = slices.Grow(make([]byte, 0, 32), len(raw))
	}))
	if limit := 1.25 * oneBuffer; perRun > limit {
		t.Fatalf("Marshal allocates %.0f B for a %d B message (limit %.0f): it copies the ciphertexts more than once",
			perRun, len(raw), limit)
	}
}

// TestUnknownTagSkipped pins the forward-compatibility contract: a v1 decoder
// skips fields with tags it does not know and still decodes the rest.
func TestUnknownTagSkipped(t *testing.T) {
	// FaginCollectReq body with an unknown length-delimited tag-9 field
	// spliced between query and k.
	raw, _ := hex.DecodeString("0001" + "080e" + "4a03aabbcc" + "1014")
	var r FaginCollectReq
	if err := wire.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Query != 7 || r.K != 10 || r.Batch != 0 {
		t.Fatalf("decoded %+v, want Query 7, K 10", r)
	}
}

// TestRetiredChunkTagSkipped pins what a peer from before chunk framing was
// retired gets: its chunk-framed field (tag 7 on CollectAllResp, 8 on
// FaginCollectResp — reserved, never reused) is skipped like any unknown tag,
// the rest of the message decodes, and a leader handed such a response fails
// with the typed aggregate-count error instead of panicking or guessing.
func TestRetiredChunkTagSkipped(t *testing.T) {
	// Two chunks: one blob (aa bb), then two blobs (cc, empty).
	const chunkBody = "09020102aabb0201cc00"
	all, _ := hex.DecodeString("00010a020104180420482806" + "3a" + chunkBody)
	fagin, _ := hex.DecodeString("00010a0201041804" + "42" + chunkBody)

	var car CollectAllResp
	if err := wire.Unmarshal(all, &car); err != nil {
		t.Fatal(err)
	}
	if want := (CollectAllResp{PseudoIDs: []int{2}, PackFactor: 2, PackBits: 36, PackAdds: 3}); !reflect.DeepEqual(car, want) {
		t.Fatalf("CollectAllResp decoded %+v, want %+v", car, want)
	}
	var fcr FaginCollectResp
	if err := wire.Unmarshal(fagin, &fcr); err != nil {
		t.Fatal(err)
	}
	if want := (FaginCollectResp{PseudoIDs: []int{2}, PackFactor: 2}); !reflect.DeepEqual(fcr, want) {
		t.Fatalf("FaginCollectResp decoded %+v, want %+v", fcr, want)
	}

	tr := &transport.Memory{}
	tr.Register(AggServerName, func(_ context.Context, method string, _ []byte) ([]byte, error) {
		if method == MethodCollectAll {
			return all, nil
		}
		return fagin, nil
	})
	leader, err := NewLeader(tr, AggServerName, []string{PartyName(0)}, he.NewPlain(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Variant{VariantBase, VariantFagin} {
		_, err := runOne(context.Background(), leader, 0, 1, variant)
		if err == nil || !strings.Contains(err.Error(), "got 0 aggregates for 1 candidates") {
			t.Fatalf("%s: err = %v, want the aggregate-count mismatch", variant, err)
		}
	}
}

// gobBlob is a real encoding/gob stream (struct{ Max uint64 }{1} with its
// type descriptor): another encoding's bytes where a v1 payload should be.
var gobBlob = []byte{
	0x1a, 0x7f, 0x03, 0x01, 0x01, 0x05, 0x48, 0x65, 0x6c, 0x6c, 0x6f, 0x01, 0xff, 0x80, 0x00, 0x01,
	0x01, 0x01, 0x03, 0x4d, 0x61, 0x78, 0x01, 0x06, 0x00, 0x00, 0x00, 0x05, 0xff, 0x80, 0x01, 0x01, 0x00,
}

// TestHostileInputPerRole feeds every role handler request bodies that are
// not v1 payloads. Each must come back as a typed decode error — corrupt
// input or an unsupported version — never a panic, never a guess at another
// encoding.
func TestHostileInputPerRole(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 20, 4)
	cl, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, ShuffleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	bodies := []struct {
		name    string
		body    []byte
		version uint64 // non-zero: want *wire.UnsupportedVersionError with it
	}{
		{"gob", gobBlob, 0},
		{"empty", nil, 0},
		{"bare magic", []byte{0x00}, 0},
		{"version 0", []byte{0x00, 0x00}, 0},
		{"version 2", []byte{0x00, 0x02}, 2},
		{"truncated uvarint", []byte{0x00, 0x80}, 0},
	}
	for _, role := range []struct{ node, method string }{
		{KeyServerName, MethodPublicKey},
		{PartyName(0), MethodEncryptAll},
		{AggServerName, MethodCollectAll},
	} {
		for _, b := range bodies {
			_, err := cl.Transport.Call(ctx, role.node, role.method, b.body)
			var uv *wire.UnsupportedVersionError
			switch {
			case b.version != 0 && (!errors.As(err, &uv) || uv.Version != b.version):
				t.Errorf("%s %s on %s body: err = %v, want UnsupportedVersionError{%d}",
					role.node, role.method, b.name, err, b.version)
			case b.version == 0 && !errors.Is(err, wire.ErrCorrupt):
				t.Errorf("%s %s on %s body: err = %v, want wire.ErrCorrupt", role.node, role.method, b.name, err)
			}
		}
	}
}
