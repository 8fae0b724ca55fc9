package vfps

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"vfps/internal/mat"
)

// subPartition builds a partition holding the listed parties of pt, in order.
func subPartition(pt *Partition, parties []int) *Partition {
	out := &Partition{}
	for _, p := range parties {
		out.Parties = append(out.Parties, pt.Parties[p])
		out.FeatureIdx = append(out.FeatureIdx, pt.FeatureIdx[p])
		out.DuplicateOf = append(out.DuplicateOf, -1)
	}
	return out
}

func matRows(m *mat.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), m.Data[i*m.Cols:(i+1)*m.Cols]...)
	}
	return rows
}

// TestChurnSelectionMatchesColdRebuild is the churn bit-identity matrix: a
// consortium that reaches a membership through live joins and leaves must
// produce exactly the selection — same picks, same objective value, same
// similarity matrix — as a consortium cold-built at that final membership,
// across schemes (Paillier packs and resizes its slot headroom with the
// roster; plain does not pack) and parallelism.
func TestChurnSelectionMatchesColdRebuild(t *testing.T) {
	d, err := GenerateDataset("Bank", 96)
	if err != nil {
		t.Fatal(err)
	}
	full, err := VerticalSplit(d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		scheme      string
		parallelism int
	}{
		{"plain", 1},
		{"plain", 4},
		{"paillier", 1},
		{"paillier", 4},
	}
	for _, tc := range cases {
		tc := tc
		// The pack= segment states the layout the scheme implies and the
		// -greedy segment the one maximizer; subtest names are tracked
		// across PRs, so both stay part of them.
		name := fmt.Sprintf("%s-pack=%v-par=%d-greedy", tc.scheme, tc.scheme == "paillier", tc.parallelism)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			mk := func(pt *Partition) *Consortium {
				cons, err := NewConsortium(ctx, Config{
					Partition: pt, Labels: d.Y, Classes: d.Classes,
					Scheme: tc.scheme, KeyBits: 256, ShuffleSeed: 7,
					Options: Options{Parallelism: tc.parallelism},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cons.Close)
				return cons
			}
			opts := SelectOptions{K: 5, NumQueries: 6, Seed: 3}

			// Live consortium: start with parties {0,1,2}, select once (seeds
			// the delta caches), join 3 and 4, drop index 1.
			live := mk(subPartition(full, []int{0, 1, 2}))
			if _, err := live.Select(ctx, 2, opts); err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{3, 4} {
				joined, err := live.AddParticipant(matRows(full.Parties[p]))
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("party/%d", p); joined != want {
					t.Fatalf("join named %q, want %q", joined, want)
				}
			}
			if err := live.RemoveParticipant(1); err != nil {
				t.Fatal(err)
			}
			if got := live.PartyNames(); !reflect.DeepEqual(got, []string{"party/0", "party/2", "party/3", "party/4"}) {
				t.Fatalf("post-churn roster %v", got)
			}
			churned, err := live.Select(ctx, 2, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Cold twin at the final membership.
			cold, err := mk(subPartition(full, []int{0, 2, 3, 4})).Select(ctx, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(churned.Selected, cold.Selected) {
				t.Fatalf("churned selection %v, cold rebuild %v", churned.Selected, cold.Selected)
			}
			if churned.Value != cold.Value {
				t.Fatalf("churned value %v, cold rebuild %v", churned.Value, cold.Value)
			}
			if !reflect.DeepEqual(churned.W, cold.W) {
				t.Fatalf("similarity matrices diverge:\nchurned %v\ncold    %v", churned.W, cold.W)
			}
		})
	}
}

// TestJoinReusesSurvivorCiphertexts pins what an in-place join saves: a warm
// 6-party Paillier consortium that admits a 7th party re-encrypts only the
// joiner's blocks, so its next selection pays at least
// 2x fewer encryptions than a cold 7-party build — and selects exactly what
// that cold build selects. BASE keeps the candidate set membership-invariant,
// so every survivor's ciphertext blocks are byte-stable across the join.
func TestJoinReusesSurvivorCiphertexts(t *testing.T) {
	d, err := GenerateDataset("Bank", 96)
	if err != nil {
		t.Fatal(err)
	}
	full, err := VerticalSplit(d, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mk := func(members []int) *Consortium {
		cons, err := NewConsortium(ctx, Config{
			Partition: subPartition(full, members), Labels: d.Y, Classes: d.Classes,
			Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cons.Close)
		return cons
	}
	opts := SelectOptions{K: 5, NumQueries: 6, Seed: 3, Base: true}

	live := mk([]int{0, 1, 2, 3, 4, 5})
	// A fresh consortium's first round is static. A second round over the
	// same queries — another K, so the similarity cache does not answer it,
	// and BASE encrypts the same blocks at any K — lays them out at the
	// negotiated width the join round packs under.
	for _, k := range []int{opts.K, opts.K - 1} {
		warm := opts
		warm.K = k
		if _, err := live.Select(ctx, 2, warm); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.AddParticipant(matRows(full.Parties[6])); err != nil {
		t.Fatal(err)
	}
	join, err := live.Select(ctx, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := mk([]int{0, 1, 2, 3, 4, 5, 6}).Select(ctx, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(join.Selected, cold.Selected) || join.Value != cold.Value || !reflect.DeepEqual(join.W, cold.W) {
		t.Fatalf("joined selection %v (%v) diverges from cold rebuild %v (%v)",
			join.Selected, join.Value, cold.Selected, cold.Value)
	}
	if join.Counts.Encryptions <= 0 || cold.Counts.Encryptions < 2*join.Counts.Encryptions {
		t.Fatalf("join paid %d encryptions against a cold rebuild's %d, want at most half",
			join.Counts.Encryptions, cold.Counts.Encryptions)
	}
}

// TestPaillierDefaultIsPackedAndExact drives the public API with no
// performance field set: a Paillier consortium must pack (fewer encryptions
// than half of one per party per candidate), select exactly what the
// plain-scheme BASE oracle selects, and keep matching a cold rebuild while
// the roster grows 2 → 9 and shrinks back — every power of two costs the slot
// headroom one more bit, so the pack factor has to follow the roster without
// ever overflowing a slot.
func TestPaillierDefaultIsPackedAndExact(t *testing.T) {
	d, err := GenerateDataset("Bank", 64)
	if err != nil {
		t.Fatal(err)
	}
	full, err := VerticalSplit(d, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mk := func(scheme string, members []int) *Consortium {
		cons, err := NewConsortium(ctx, Config{
			Partition: subPartition(full, members), Labels: d.Y, Classes: d.Classes,
			Scheme: scheme, KeyBits: 512, ShuffleSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cons.Close)
		return cons
	}
	opts := SelectOptions{K: 5, NumQueries: 6, Seed: 3}
	base := opts
	base.Base = true
	// check compares the live consortium's selection at the given membership
	// with a cold Paillier rebuild (bit for bit) and with the plain BASE
	// oracle (same picks, W within fixed-point rounding).
	check := func(live *Consortium, members []int) {
		t.Helper()
		count := min(2, len(members)-1)
		got, err := live.Select(ctx, count, opts)
		if err != nil {
			t.Fatalf("P=%d: %v", len(members), err)
		}
		if ceiling := float64(len(members)) * got.AvgCandidates * float64(opts.NumQueries) / 2; float64(got.Counts.Encryptions) >= ceiling {
			t.Fatalf("P=%d: %d encryptions, want fewer than %.0f (half of one per party per candidate)",
				len(members), got.Counts.Encryptions, ceiling)
		}
		cold, err := mk("paillier", members).Select(ctx, count, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, cold.Selected) || got.Value != cold.Value || !reflect.DeepEqual(got.W, cold.W) {
			t.Fatalf("P=%d: live selection %v (%v) diverges from cold rebuild %v (%v)",
				len(members), got.Selected, got.Value, cold.Selected, cold.Value)
		}
		oracle, err := mk("plain", members).Select(ctx, count, base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, oracle.Selected) {
			t.Fatalf("P=%d: selected %v, plain BASE oracle %v", len(members), got.Selected, oracle.Selected)
		}
		for i := range oracle.W {
			for j := range oracle.W[i] {
				if diff := got.W[i][j] - oracle.W[i][j]; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("P=%d: W[%d][%d] = %v, plain BASE oracle %v", len(members), i, j, got.W[i][j], oracle.W[i][j])
				}
			}
		}
	}

	members := []int{0, 1}
	live := mk("paillier", members)
	check(live, members)
	for p := 2; p < 9; p++ {
		if _, err := live.AddParticipant(matRows(full.Parties[p])); err != nil {
			t.Fatal(err)
		}
		members = append(members, p)
		check(live, members)
	}
	for p := 8; p >= 2; p-- {
		if err := live.RemoveParticipant(p); err != nil {
			t.Fatal(err)
		}
		members = members[:len(members)-1]
		check(live, members)
	}
}

// TestChurnJoinValidation pins the joiner shape checks.
func TestChurnJoinValidation(t *testing.T) {
	d, err := GenerateDataset("Rice", 80)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := VerticalSplit(d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsortium(context.Background(), Config{
		Partition: pt, Labels: d.Y, Classes: d.Classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if _, err := cons.AddParticipant(make([][]float64, 7)); err == nil {
		t.Fatal("row-count mismatch should be rejected")
	}
	bad := matRows(pt.Parties[0])
	bad[3] = bad[3][:1]
	if _, err := cons.AddParticipant(bad); err == nil {
		t.Fatal("ragged joiner should be rejected")
	}
	if err := cons.RemoveParticipant(9); err == nil {
		t.Fatal("unknown index should be rejected")
	}
	// The last participant cannot leave.
	if err := cons.RemoveParticipant(1); err != nil {
		t.Fatal(err)
	}
	if err := cons.RemoveParticipant(2); err != nil {
		t.Fatal(err)
	}
	if err := cons.RemoveParticipant(0); err == nil {
		t.Fatal("removing the last participant should be rejected")
	}
}
