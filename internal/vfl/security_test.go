package vfl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"vfps/internal/he"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// recordingCaller wraps a transport and records every request and response
// payload, so tests can scan the full protocol transcript for leaks.
type recordingCaller struct {
	inner transport.Caller
	mu    sync.Mutex
	blobs [][]byte
}

func (r *recordingCaller) Call(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	resp, err := r.inner.Call(ctx, peer, method, req)
	r.mu.Lock()
	r.blobs = append(r.blobs, append([]byte{}, req...))
	if resp != nil {
		r.blobs = append(r.blobs, append([]byte{}, resp...))
	}
	r.mu.Unlock()
	return resp, err
}

// containsFloat64 reports whether any 8-byte window of any recorded blob
// decodes (big-endian or little-endian) to a float64 within tol of v.
func (r *recordingCaller) containsFloat64(v, tol float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.blobs {
		for i := 0; i+8 <= len(b); i++ {
			be := math.Float64frombits(binary.BigEndian.Uint64(b[i : i+8]))
			le := math.Float64frombits(binary.LittleEndian.Uint64(b[i : i+8]))
			if math.Abs(be-v) < tol || math.Abs(le-v) < tol {
				return true
			}
		}
	}
	return false
}

// buildRecordedCluster wires a cluster whose leader and aggregation server
// route through a recorder, capturing the entire selection transcript.
func buildRecordedCluster(t *testing.T, scheme string) (*Cluster, *recordingCaller) {
	t.Helper()
	_, pt := testPartition(t, "Rice", 60, 3)
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingCaller{inner: cl.Transport}
	// Rebuild the server and leader over the recorder so every hop that
	// carries protected values is captured.
	pub, err := FetchPublicScheme(context.Background(), rec, KeyServerName)
	if err != nil {
		t.Fatal(err)
	}
	// The server keys the parties' delta-cached blocks by the roster's slot
	// layout, so its scheme carries the geometry the parties pack with.
	if err := ConfigurePacking(pub, pt.P()); err != nil {
		t.Fatal(err)
	}
	partyNames := make([]string, pt.P())
	for i := range partyNames {
		partyNames[i] = PartyName(i)
	}
	agg, err := NewAggServer(rec, partyNames, pub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Transport.Register(AggServerName, agg.Handler())
	priv, err := FetchPrivateScheme(context.Background(), rec, KeyServerName)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader(rec, AggServerName, partyNames, priv, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Leader = leader
	return cl, rec
}

// TestTranscriptDoesNotLeakPlaintextDistances runs a full selection under
// each protecting scheme and scans every byte that crossed the transport for
// IEEE-754 encodings of the true partial distances.
func TestTranscriptDoesNotLeakPlaintextDistances(t *testing.T) {
	for _, scheme := range []string{"paillier"} {
		t.Run(scheme, func(t *testing.T) {
			cl, rec := buildRecordedCluster(t, scheme)
			ctx := context.Background()
			query := 5
			if _, err := cl.Leader.Similarities(ctx, []int{query}, 4, VariantFagin); err != nil {
				t.Fatal(err)
			}
			// The secrets: party 0's true partial distances for this query.
			qc, err := cl.Parties[0].distances(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			leaks := 0
			checked := 0
			for i, d := range qc.dist {
				if i == query || d == 0 {
					continue
				}
				checked++
				if rec.containsFloat64(d, 1e-12) {
					leaks++
				}
				if checked >= 30 {
					break
				}
			}
			if leaks > 0 {
				t.Fatalf("%d of %d partial distances appeared in plaintext on the wire", leaks, checked)
			}
		})
	}
}

// Sanity-check the detector itself: under the plain scheme the distances DO
// cross the wire verbatim, so the scan must find them.
func TestTranscriptDetectorFindsPlainLeaks(t *testing.T) {
	cl, rec := buildRecordedCluster(t, "plain")
	ctx := context.Background()
	query := 5
	if _, err := cl.Leader.Similarities(ctx, []int{query}, 4, VariantBase); err != nil {
		t.Fatal(err)
	}
	qc, err := cl.Parties[0].distances(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, d := range qc.dist {
		if i == query || d == 0 {
			continue
		}
		if rec.containsFloat64(d, 1e-12) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("detector failed to find plaintext distances in the plain-scheme transcript")
	}
}

// TestKeyResponsesCarryOnlySchemeAndKey pins what the key server hands out:
// the key responses bind the scheme name (tag 1) and the key (tag 2) and
// nothing else, with the retired secagg/dp parameter tags 3–6 reserved, so
// no seed a participant could derive ever reaches another role. Under
// Paillier the aggregation server's scheme and every party's scheme are
// public-only: Decrypt of a party's ciphertext returns he.ErrNoPrivateKey.
func TestKeyResponsesCarryOnlySchemeAndKey(t *testing.T) {
	for _, m := range []wire.Message{&PublicKeyResp{}, &PrivateKeyResp{}} {
		name := messageName(m)
		var bound []string
		for _, b := range wire.Layout(m) {
			f, _ := boundField(m, b)
			bound = append(bound, fmt.Sprintf("%d:%s", b.Tag, f.Name))
		}
		if got := strings.Join(bound, " "); got != "1:Scheme 2:Key" {
			t.Errorf("%s binds %s, want 1:Scheme 2:Key", name, got)
		}
		for tag := 3; tag <= 6; tag++ {
			if _, ok := reservedTags[name][tag]; !ok {
				t.Errorf("%s: tag %d is not reserved", name, tag)
			}
		}
	}

	_, pt := testPartition(t, "Bank", 80, 4)
	cl := newCluster(t, pt, "paillier")
	t.Cleanup(cl.Close)
	ctx := context.Background()
	views := map[string]he.Scheme{AggServerName: cl.Agg.scheme}
	for _, p := range cl.Parties {
		views[PartyName(p.index)] = p.scheme
	}
	for _, p := range cl.Parties {
		c, err := p.scheme.Encrypt(3.25)
		if err != nil {
			t.Fatal(err)
		}
		for role, s := range views {
			if _, err := s.Decrypt(c); !errors.Is(err, he.ErrNoPrivateKey) {
				t.Errorf("%s decrypting %s's ciphertext: err = %v, want he.ErrNoPrivateKey", role, PartyName(p.index), err)
			}
			if _, err := s.DecryptVec(ctx, [][]byte{c}); !errors.Is(err, he.ErrNoPrivateKey) {
				t.Errorf("%s vector-decrypting %s's ciphertext: err = %v, want he.ErrNoPrivateKey", role, PartyName(p.index), err)
			}
		}
	}
	c, err := cl.Parties[0].scheme.Encrypt(3.25)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Leader.scheme.Decrypt(c); err != nil || v != 3.25 {
		t.Fatalf("the leader decrypts a party's ciphertext to %g, %v; want 3.25", v, err)
	}
}
