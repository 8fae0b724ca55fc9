package vfl

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// allMessages returns one fully-populated instance of every protocol message.
// Round-trip and measurement tests iterate this list so a new message type
// that forgets its wire methods fails to compile here first.
func allMessages() []wire.Message {
	return []wire.Message{
		&PublicKeyResp{Scheme: "paillier", Key: []byte{1, 2, 3}, Parties: 3,
			MaskSeed: -77, Epsilon: 0.5, Delta: 1e-5},
		&PrivateKeyResp{Scheme: "secagg", Parties: 4, MaskSeed: 99},
		&RankingBatchReq{Query: 3, Offset: 64, Count: 32},
		&RankingBatchResp{PseudoIDs: []int{9, 4, 17, 16}}, // unsorted: negative deltas
		&EncryptAllReq{Query: 12, PackBits: 40, Delta: true, NoCache: true},
		&EncryptAllResp{PseudoIDs: []int{1, 2, 3}, Ciphers: [][]byte{{0xde, 0xad}, {0xbe}}, PackFactor: 2,
			PackBits: 36, NeedBits: 30, CachedBlocks: []int{0, 2}},
		&EncryptCandidatesReq{Query: 5, PseudoIDs: []int{100, 7}, PackBits: 20, Delta: true},
		&EncryptCandidatesResp{Ciphers: [][]byte{{1}, {2, 3}}, PackFactor: 1,
			NeedBits: 18, CachedBlocks: []int{1}},
		&NeighborSumReq{Query: 2, PseudoIDs: []int{8, 3, 11}},
		&NeighborSumResp{Sum: -2.25},
		&CountsResp{Counts: costmodel.Raw{DistanceFlops: 1, Encryptions: 2,
			Decryptions: 3, CipherAdds: 4, PlainAdds: 5, ItemsSent: 6,
			Messages: 7, BytesSent: 8, FramingBytes: 9, CacheHits: 10, CacheMisses: 11}},
		&EncryptRankScoreReq{Query: 1, Rank: 9},
		&EncryptRankScoreResp{Cipher: []byte{5, 6}},
		&AggregateCandidatesReq{Query: 4, PseudoIDs: []int{2, 1}, Adaptive: true, Delta: true, NoCache: true},
		&AggregateCandidatesResp{Aggregated: [][]byte{{9}}, PackFactor: 3,
			PackBits: 36, PackAdds: 3, CachedBlocks: []int{0}},
		&AggregateFrontierReq{Query: 6, Rank: 2},
		&AggregateFrontierResp{Cipher: []byte{7}},
		&CollectAllReq{Query: 8, ChunkBytes: 4096, Adaptive: true, Delta: true, NoCache: true},
		&CollectAllResp{PseudoIDs: []int{0, 5}, Aggregated: [][]byte{{1, 1}, {2, 2}}, PackFactor: 1,
			PackBits: 36, PackAdds: 3, CachedBlocks: []int{1}},
		&CollectAllResp{PseudoIDs: []int{0, 5}, PackFactor: 2,
			Chunked: [][][]byte{{{1, 1}}, {{2, 2}, {3}}}},
		&FaginCollectReq{Query: 7, K: 10, Batch: 32, ChunkBytes: 2048, Adaptive: true, Delta: true},
		&FaginCollectResp{PseudoIDs: []int{3, 1}, Aggregated: [][]byte{{4}}, PackFactor: 2,
			Stats: FaginStats{Rounds: 2, ScanDepth: 64, Candidates: 9}},
		&FaginCollectResp{PseudoIDs: []int{3, 1}, PackFactor: 2, PackBits: 40, PackAdds: 4,
			CachedBlocks: []int{0, 1}, Chunked: [][][]byte{{{7, 8}}},
			Stats: FaginStats{Rounds: 1, ScanDepth: 8, Candidates: 2}},
		&ShardCollectReq{Query: 11, PseudoIDs: []int{6, 2}, PackBits: 24, Delta: true, NoCache: true},
		&ShardCollectReq{Query: 11, All: true, PackBits: 24},
		&ShardCollectResp{PseudoIDs: []int{0, 3}, Ciphers: [][]byte{{0xfe}, {0xff, 1}},
			PackFactor: 2, PackBits: 30, NeedBits: 26},
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
		// Nested message: counters as a length-delimited wireRaw sub-body.
		{&CountsResp{Counts: costmodel.Raw{Encryptions: 3, BytesSent: 500}},
			"00010a05100640e807", 0},
		// IDs + pack factor + nested FaginStats, blob field absent.
		{&FaginCollectResp{PseudoIDs: []int{1}, PackFactor: 1, Stats: FaginStats{Rounds: 2}},
			"00010a020102180222020804", 0},
		// Adaptive/delta request flags: booleans encode as varint 1 when set
		// and are omitted when clear (legacy peers skip the unknown tags).
		{&EncryptAllReq{Query: 12, PackBits: 40, Delta: true, NoCache: true},
			"00010818105018022002", 0},
		{&AggregateCandidatesReq{Query: 4, PseudoIDs: []int{2, 1}, Adaptive: true, Delta: true},
			"00010808120302040118022002", 0},
		// Delta response: a withheld block rides as a 0-length blob
		// placeholder and its index appears in the CachedBlocks ID list.
		{&EncryptAllResp{PseudoIDs: []int{4, 9}, Ciphers: [][]byte{{0xaa}, {}}, PackFactor: 2,
			PackBits: 36, NeedBits: 33, CachedBlocks: []int{1}},
			"00010a0302080a12040201aa0018042048284232020102", 1},
		// Chunked response (tag 7): uvarint chunk count, each chunk its own
		// length-prefixed blob list; the flat Aggregated field stays absent.
		{&CollectAllResp{PseudoIDs: []int{2}, PackFactor: 2, PackBits: 36, PackAdds: 3,
			Chunked: [][][]byte{{{0xaa, 0xbb}}, {{0xcc}, {}}}},
			"00010a0201041804204828063a09020102aabb0201cc00", 3},
		// Cross-round cache counters ride the nested counters sub-body.
		{&CountsResp{Counts: costmodel.Raw{CacheHits: 2, CacheMisses: 1}},
			"00010a0450045802", 0},
		// Shard collect request, candidate pattern: query, delta-coded IDs,
		// dictated pack bits, then the delta/no-cache flags.
		{&ShardCollectReq{Query: 11, PseudoIDs: []int{6, 2}, PackBits: 24, Delta: true, NoCache: true},
			"000108161203020c07203028023002", 0},
		// BASE pattern: the All flag rides tag 3, the ID list is absent.
		{&ShardCollectReq{Query: 3, All: true, PackBits: 40},
			"0001080618022050", 0},
		// Shard root: IDs + blob list + uniform geometry + NeedBits maximum.
		{&ShardCollectResp{PseudoIDs: []int{0, 3}, Ciphers: [][]byte{{0xfe}, {0xff, 1}},
			PackFactor: 2, PackBits: 30, NeedBits: 26},
			"00010a0302000612060201fe02ff011804203c2834", 3},
	}
	bin := wire.Binary()
	for _, v := range vectors {
		want, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		raw, payload, err := wire.MarshalMeasured(bin, v.msg)
		if err != nil {
			t.Fatalf("%T: %v", v.msg, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%T encodes as %x, golden vector is %s", v.msg, raw, v.hex)
		}
		if payload != v.payload {
			t.Errorf("%T payload = %d, want %d", v.msg, payload, v.payload)
		}
		// The vector must also decode back to the original message.
		back := reflect.New(reflect.TypeOf(v.msg).Elem()).Interface().(wire.Message)
		if err := bin.Unmarshal(want, back); err != nil {
			t.Fatalf("%T: decoding golden vector: %v", v.msg, err)
		}
		if !reflect.DeepEqual(v.msg, back) {
			t.Errorf("%T golden vector decodes to %+v, want %+v", v.msg, back, v.msg)
		}
	}
}

// TestWireRoundTripAllMessages round-trips every protocol message through
// both codecs and requires exact equality.
func TestWireRoundTripAllMessages(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Gob(), wire.Binary()} {
		for _, msg := range allMessages() {
			raw, err := codec.Marshal(msg)
			if err != nil {
				t.Fatalf("%s %T: %v", codec.Name(), msg, err)
			}
			back := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wire.Message)
			if err := codec.Unmarshal(raw, back); err != nil {
				t.Fatalf("%s %T: %v", codec.Name(), msg, err)
			}
			if !reflect.DeepEqual(msg, back) {
				t.Errorf("%s %T: round trip %+v -> %+v", codec.Name(), msg, back, msg)
			}
			// Sniffing must route the payload to the codec that produced it.
			detected, err := wire.Detect(raw)
			if err != nil {
				t.Fatalf("%s %T: detect: %v", codec.Name(), msg, err)
			}
			if detected.Name() != codec.Name() {
				t.Errorf("%s %T sniffed as %s", codec.Name(), msg, detected.Name())
			}
		}
	}
}

// TestMarshalMeasuredBreakdown checks the payload/framing split both codecs
// report: payload (blob content plus 8 bytes per float scalar) is a property
// of the message, identical across codecs, and never exceeds the encoding.
func TestMarshalMeasuredBreakdown(t *testing.T) {
	gob, bin := wire.Gob(), wire.Binary()
	for _, msg := range allMessages() {
		graw, gp, err := wire.MarshalMeasured(gob, msg)
		if err != nil {
			t.Fatal(err)
		}
		braw, bp, err := wire.MarshalMeasured(bin, msg)
		if err != nil {
			t.Fatal(err)
		}
		if gp != bp {
			t.Errorf("%T: payload differs across codecs: gob %d, binary %d", msg, gp, bp)
		}
		if bp < 0 || bp > int64(len(braw)) || gp > int64(len(graw)) {
			t.Errorf("%T: payload %d outside [0, len(raw)] (binary %d, gob %d bytes)",
				msg, bp, len(braw), len(graw))
		}
		// framing = len(raw) - payload; the binary envelope alone is 2 bytes.
		if int64(len(braw))-bp < 2 {
			t.Errorf("%T: binary framing %d < envelope size", msg, int64(len(braw))-bp)
		}
	}
}

// TestMarshalMeasuredEncodesOnce pins the binary codec's single pass: a
// megabyte ciphertext response is measured and encoded into one buffer sized
// to it — no second encoding for the tally, no temporary blob body — and the
// bytes are the ones Marshal produces.
func TestMarshalMeasuredEncodesOnce(t *testing.T) {
	ciphers := make([][]byte, 4096)
	for i := range ciphers {
		ciphers[i] = bytes.Repeat([]byte{byte(i)}, 256)
	}
	msg := &EncryptCandidatesResp{Ciphers: ciphers, PackFactor: 3, PackBits: 36, NeedBits: 30, CachedBlocks: []int{1, 7}}
	bin := wire.Binary()
	raw, payload, err := wire.MarshalMeasured(bin, msg)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := bin.Marshal(msg); err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("MarshalMeasured and Marshal disagree (%v)", err)
	}
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
	perRun := allocated(func() {
		if _, _, err := wire.MarshalMeasured(bin, msg); err != nil {
			t.Fatal(err)
		}
	})
	// One buffer of len(raw) — or what growing to it costs in this build:
	// under -race the compiler materialises slices.Grow's temporary.
	oneBuffer := max(float64(len(raw)), allocated(func() {
		_ = slices.Grow(make([]byte, 0, 32), len(raw))
	}))
	if limit := 1.25 * oneBuffer; perRun > limit {
		t.Fatalf("MarshalMeasured allocates %.0f B for a %d B message (limit %.0f): it copies the ciphertexts more than once",
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
	if err := wire.Binary().Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Query != 7 || r.K != 10 || r.Batch != 0 {
		t.Fatalf("decoded %+v, want Query 7, K 10", r)
	}
}

func wireTestCluster(t *testing.T, pt *dataset.Partition, scheme, wireName string) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
		Wire:        wireName,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestCodecSelectionIdentity is the refactor's core contract: for every
// protection scheme, a cluster speaking the compact binary codec produces the
// bit-identical similarity matrix and neighbour sets of a gob cluster. Only
// bytes on the wire may change.
func TestCodecSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []string{"paillier", "plain", "secagg", "dp"} {
		t.Run(scheme, func(t *testing.T) {
			_, pt := testPartition(t, "Bank", 40, 3)
			gc := wireTestCluster(t, pt, scheme, "gob")
			bc := wireTestCluster(t, pt, scheme, "binary")
			queries := []int{0, 13, 39}

			for _, variant := range []Variant{VariantBase, VariantFagin} {
				grep, err := gc.Leader.Similarities(ctx, queries, 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				brep, err := bc.Leader.Similarities(ctx, queries, 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				for i := range grep.W {
					for j := range grep.W[i] {
						if grep.W[i][j] != brep.W[i][j] {
							t.Fatalf("%s: W[%d][%d] differs across codecs: %v vs %v",
								variant, i, j, grep.W[i][j], brep.W[i][j])
						}
					}
				}
			}

			gq, err := gc.Leader.RunQuery(ctx, queries[1], 3, VariantFagin)
			if err != nil {
				t.Fatal(err)
			}
			bq, err := bc.Leader.RunQuery(ctx, queries[1], 3, VariantFagin)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gq.Neighbors) != fmt.Sprint(bq.Neighbors) {
				t.Fatalf("neighbours differ across codecs: %v vs %v", gq.Neighbors, bq.Neighbors)
			}

			// Both sides committed the codec they were configured with.
			if got := bc.Leader.Negotiated(AggServerName); got != "binary" {
				t.Fatalf("binary leader negotiated %q with aggserver", got)
			}
			if got := gc.Leader.Negotiated(AggServerName); got != "gob" {
				t.Fatalf("gob leader negotiated %q with aggserver", got)
			}
		})
	}
}

// TestMixedCodecSelectionIdentity drops one gob-only party into an otherwise
// binary consortium: every caller negotiates down to gob for that peer,
// stays on binary for the rest, and the selection output is bit-identical to
// an all-gob cluster.
func TestMixedCodecSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 40, 3)
	queries := []int{0, 13, 39}

	gc := wireTestCluster(t, pt, "paillier", "gob")
	mixed := wireTestCluster(t, pt, "paillier", "binary")
	mixed.Parties[1].SetCodec(wire.Gob()) // the legacy node

	for _, variant := range []Variant{VariantBase, VariantFagin} {
		grep, err := gc.Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		mrep, err := mixed.Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grep.W {
			for j := range grep.W[i] {
				if grep.W[i][j] != mrep.W[i][j] {
					t.Fatalf("%s: W[%d][%d] differs in mixed cluster: %v vs %v",
						variant, i, j, grep.W[i][j], mrep.W[i][j])
				}
			}
		}
	}

	// Per-peer negotiation: binary towards binary peers, gob towards the
	// legacy party — on both roles that fan out to parties.
	for caller, want := range map[string]map[string]string{
		"leader": {AggServerName: "binary", PartyName(0): "binary", PartyName(1): "gob", PartyName(2): "binary"},
		"agg":    {PartyName(0): "binary", PartyName(1): "gob", PartyName(2): "binary"},
	} {
		for peer, codec := range want {
			var got string
			if caller == "leader" {
				got = mixed.Leader.Negotiated(peer)
			} else {
				got = mixed.Agg.Negotiated(peer)
			}
			if got != codec {
				t.Fatalf("%s negotiated %q with %s, want %q", caller, got, peer, codec)
			}
		}
	}
}

// TestNegotiationHandshake proves the three negotiation outcomes at the node
// level: binary↔binary commits v1, binary↔gob commits gob, and an envelope
// from a future version is rejected with the typed error, never misparsed.
func TestNegotiationHandshake(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 20, 2)
	bc := wireTestCluster(t, pt, "plain", "binary")
	gc := wireTestCluster(t, pt, "plain", "gob")

	// binary ↔ binary: the hello ack commits v1.
	ack, err := bc.Transport.Call(ctx, PartyName(0), transport.MethodHello, wire.MarshalHello(wire.MaxVersion))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := wire.ParseHelloAck(ack); err != nil || v != 1 {
		t.Fatalf("binary party committed version %d (err %v), want 1", v, err)
	}

	// binary ↔ gob: a gob-configured node answers version 0 (gob).
	ack, err = gc.Transport.Call(ctx, PartyName(0), transport.MethodHello, wire.MarshalHello(wire.MaxVersion))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := wire.ParseHelloAck(ack); err != nil || v != 0 {
		t.Fatalf("gob party committed version %d (err %v), want 0", v, err)
	}

	// A future envelope (version 2) must be rejected with the typed error by
	// every role, whatever its configured codec.
	future := []byte{0x00, 0x02}
	for _, tc := range []struct {
		cl     *Cluster
		node   string
		method string
	}{
		{bc, PartyName(0), MethodEncryptAll},
		{bc, AggServerName, MethodCollectAll},
		{bc, KeyServerName, MethodPublicKey},
		{gc, PartyName(0), MethodEncryptAll},
	} {
		_, err := tc.cl.Transport.Call(ctx, tc.node, tc.method, future)
		var uv *wire.UnsupportedVersionError
		if !errors.As(err, &uv) {
			t.Fatalf("%s %s accepted future envelope: err = %v", tc.node, tc.method, err)
		}
		if uv.Version != 2 {
			t.Fatalf("%s reported version %d, want 2", tc.node, uv.Version)
		}
	}
}
