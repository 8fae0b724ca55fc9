package vfl

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/submod"
)

// paillierCluster builds a Paillier cluster the way every caller gets one:
// slot-packed, slot width negotiated per round.
func paillierCluster(t *testing.T, pt *dataset.Partition) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      "paillier",
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// scalarOracle strips the slot geometry from both of a cluster's schemes,
// leaving one partial distance per ciphertext: the reference layout the packed
// one must match bit for bit. Only this package's tests can build it.
func scalarOracle(cl *Cluster) *Cluster {
	for _, s := range []he.Scheme{cl.pubScheme, cl.privScheme} {
		s.(*he.Paillier).DisablePacking()
	}
	return cl
}

// TestPackedSelectionIdentity is the packing contract: slot-packed ciphertexts
// change only how many ciphertexts move, never what the leader decides. The
// packed cluster must produce the exact similarity matrix and neighbour sets
// of the scalar cluster while sending strictly fewer bytes.
func TestPackedSelectionIdentity(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	ctx := context.Background()
	queries := []int{0, 11, 29, 58}

	scalar := scalarOracle(paillierCluster(t, pt))
	packed := paillierCluster(t, pt)
	if pf := scalar.pubScheme.(*he.Paillier).PackFactor(); pf != 1 {
		t.Fatalf("scalar oracle pack factor = %d, want 1", pf)
	}
	if pf := packed.pubScheme.(*he.Paillier).PackFactor(); pf < 2 {
		t.Fatalf("packed cluster pack factor = %d, want ≥ 2", pf)
	}

	for _, variant := range []Variant{VariantBase, VariantFagin, VariantThreshold} {
		t.Run(fmt.Sprint(variant), func(t *testing.T) {
			sq, err := runOne(ctx, scalar.Leader, queries[0], 3, variant)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := runOne(ctx, packed.Leader, queries[0], 3, variant)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sq.Neighbors) != fmt.Sprint(pq.Neighbors) {
				t.Fatalf("neighbours differ: %v vs %v", sq.Neighbors, pq.Neighbors)
			}
		})
	}

	for _, variant := range []Variant{VariantBase, VariantFagin} {
		srep, err := scalar.Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := packed.Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		for i := range srep.W {
			for j := range srep.W[i] {
				if srep.W[i][j] != prep.W[i][j] {
					t.Fatalf("%s: W[%d][%d] differs: %v vs %v",
						variant, i, j, srep.W[i][j], prep.W[i][j])
				}
			}
		}
	}

	sc, pc := nodeCounts(scalar), nodeCounts(packed)
	if pc.BytesSent >= sc.BytesSent {
		t.Fatalf("packed run sent %d bytes, scalar %d — packing should shrink traffic",
			pc.BytesSent, sc.BytesSent)
	}
	if pc.Encryptions >= sc.Encryptions {
		t.Fatalf("packed run performed %d encryptions, scalar %d — counters should reflect packed ciphertexts",
			pc.Encryptions, sc.Encryptions)
	}
}

// TestEncryptWindowSelectionIdentity pins that how encryption randomizers are
// sampled never reaches the answer: a packed Paillier cluster on classic
// uniform-r sampling (EncryptWindow -1, the audit mode SECURITY.md documents)
// computes the exact similarity matrix, and therefore the exact picks, of one
// on the default fixed-base window, under every top-k variant.
func TestEncryptWindowSelectionIdentity(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 4)
	ctx := context.Background()
	queries := []int{0, 11, 29, 58}
	build := func(window int) *Cluster {
		cl, err := NewLocalCluster(ctx, ClusterConfig{
			Partition: pt, Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7, Batch: 8,
			Options: Options{Parallelism: 2, EncryptWindow: window}, // Parallelism != 1 starts the randomizer pool
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		if pf := cl.pubScheme.(*he.Paillier).PackFactor(); pf < 2 {
			t.Fatalf("window %d: pack factor = %d, want ≥ 2", window, pf)
		}
		return cl
	}
	windowed, classic := build(0), build(-1)
	for _, variant := range []Variant{VariantBase, VariantFagin, VariantThreshold} {
		wrep, err := windowed.Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		crep, err := classic.Leader.Similarities(ctx, queries, 3, variant)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wrep.W, crep.W) {
			t.Fatalf("%s: W differs between windowed and classic sampling:\n%v\n%v", variant, wrep.W, crep.W)
		}
		picks := func(w [][]float64) []int {
			f, err := submod.NewFacilityLocation(w)
			if err != nil {
				t.Fatal(err)
			}
			res, err := submod.Greedy(f, 2)
			if err != nil {
				t.Fatal(err)
			}
			return res.Selected
		}
		if wp, cp := picks(wrep.W), picks(crep.W); !slices.Equal(wp, cp) {
			t.Fatalf("%s: picks differ: %v vs %v", variant, wp, cp)
		}
	}
}

// TestPackedRejectsUndersizedKey pins the failure mode: a modulus too small to
// hold one slot must fail cluster construction instead of silently degrading,
// and the error names the smallest KeyBits that would do. Two parties need a
// 64-bit value, the bias bit and one carry bit per slot, plus the two-bit
// sign margin of the plaintext space.
func TestPackedRejectsUndersizedKey(t *testing.T) {
	_, pt := testPartition(t, "Bank", 20, 2)
	build := func(keyBits int) error {
		cl, err := NewLocalCluster(context.Background(), ClusterConfig{
			Partition:   pt,
			Scheme:      "paillier",
			KeyBits:     keyBits,
			ShuffleSeed: 7,
		})
		if err == nil {
			cl.Close()
		}
		return err
	}
	err := build(64)
	if err == nil {
		t.Fatal("64-bit key accepted packing")
	}
	if !strings.Contains(err.Error(), "KeyBits must be at least 68") {
		t.Fatalf("error does not name the smallest working key size: %v", err)
	}
	if err := build(68); err != nil {
		t.Fatalf("68-bit key, the size the error names, rejected: %v", err)
	}
	if err := build(67); err == nil {
		t.Fatal("67-bit key accepted, so 68 is not the smallest")
	}
}
