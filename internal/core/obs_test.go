package core

import (
	"context"
	"testing"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/obs"
	"vfps/internal/vfl"
)

// TestSelectPhaseSpans asserts a traced selection decomposes into the two
// sequential root phases — similarity estimation, submodular maximization —
// whose durations sum to within the measured wall clock, with every query
// span nested inside the similarity phase.
func TestSelectPhaseSpans(t *testing.T) {
	spec, err := dataset.SpecByName("Bank")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(100)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataset.VerticalSplit(d, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(4096)
	cl, err := vfl.NewLocalCluster(context.Background(), vfl.ClusterConfig{
		Partition:   pt,
		Scheme:      "plain",
		ShuffleSeed: 7,
		Batch:       8,
		Obs:         o,
		Instance:    "phase-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	o.Tracer().Reset() // drop cluster-construction spans

	start := time.Now()
	sel, err := Select(context.Background(), cl.Leader, 2, Config{
		K:       5,
		Queries: SampleQueries(100, 10, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	rep := o.Tracer().Report()
	wantPhases := []string{"select.similarity", "select.maximize"}
	if len(rep.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %v", rep.Phases, wantPhases)
	}
	for i, w := range wantPhases {
		if rep.Phases[i].Name != w {
			t.Fatalf("phase %d = %s, want %s (all: %+v)", i, rep.Phases[i].Name, w, rep.Phases)
		}
	}
	var phaseNs int64
	for _, p := range rep.Phases {
		if p.Count != 1 || p.TotalNs <= 0 {
			t.Fatalf("degenerate phase %+v", p)
		}
		phaseNs += p.TotalNs
	}
	if phaseNs > wall.Nanoseconds() {
		t.Fatalf("phase total %dns exceeds wall clock %dns", phaseNs, wall.Nanoseconds())
	}

	// All query spans run inside the similarity phase, none at the root.
	var simID uint64
	for _, s := range rep.Spans {
		if s.Name == "select.similarity" {
			simID = s.ID
		}
	}
	queries := 0
	for _, s := range rep.Spans {
		if s.Name == vfl.SpanQuery {
			queries++
			if s.Parent != simID {
				t.Fatalf("%s span parented to %d, want similarity phase %d", vfl.SpanQuery, s.Parent, simID)
			}
		}
	}
	if queries != sel.QueriesUsed {
		t.Fatalf("traced %d query spans, selection used %d", queries, sel.QueriesUsed)
	}

	// One selection query-log event, decomposed into the same two phases.
	var events []obs.QueryEvent
	for _, ev := range o.Log().Slowest() {
		if ev.Kind == "selection" {
			events = append(events, ev)
		}
	}
	if len(events) != 1 {
		t.Fatalf("%d selection events, want 1", len(events))
	}
	ev := events[0]
	if len(ev.Phases) != len(wantPhases) {
		t.Fatalf("event phases = %+v, want %v", ev.Phases, wantPhases)
	}
	for i, w := range wantPhases {
		if "select."+ev.Phases[i].Name != w {
			t.Fatalf("event phase %d = %s, want %s", i, ev.Phases[i].Name, w)
		}
	}
	if got := ev.Attrs["queries"]; got != sel.QueriesUsed {
		t.Fatalf("event reports %v queries, selection used %d", got, sel.QueriesUsed)
	}
}

// TestObserverLeavesCountsUnchanged pins that observability is not charged
// to the protocol: the same selection on twin clusters, one observed (every
// request then carries a trace context) and one not, reports identical
// Counts, framing bytes included.
func TestObserverLeavesCountsUnchanged(t *testing.T) {
	_, pt := cluster(t, "Bank", 80, 4, 0)
	cfg := Config{K: 5, Queries: SampleQueries(80, 6, 1)}
	var counts [2]costmodel.Raw
	for i, o := range []*obs.Observer{nil, obs.NewObserver(4096)} {
		cl, err := vfl.NewLocalCluster(context.Background(), vfl.ClusterConfig{
			Partition: pt, Scheme: "plain", ShuffleSeed: 7, Batch: 8, Obs: o, Instance: "twin",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sel, err := Select(context.Background(), cl.Leader, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = sel.Counts
	}
	if counts[0] != counts[1] {
		t.Fatalf("observed selection counted %v, unobserved %v", counts[1], counts[0])
	}
}

// costOps sums instance's vfps_cost_ops series by op over every role.
func costOps(reg *obs.Registry, instance string) map[string]int64 {
	ops := map[string]int64{}
	for _, f := range reg.Snapshot() {
		if f.Name != "vfps_cost_ops" {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["instance"] == instance {
				ops[s.Labels["op"]] += int64(s.Value)
			}
		}
	}
	return ops
}

// TestSelectCountsAgreeWithNodeCounters checks the two ledgers against each
// other: a sequential selection's Counts, summed at the leader from its own
// work and the cost trailers of the responses it received, equals what the
// leader's, the aggregation server's and every party's cumulative counter
// moved during the selection. A charge that reaches a node counter but misses
// the ctx path — a goroutine spawned without the handler's ctx, say — breaks
// it. Each consortium runs the selection twice, so under Paillier the second
// run books delta-cache hits too.
func TestSelectCountsAgreeWithNodeCounters(t *testing.T) {
	spec, err := dataset.SpecByName("Bank")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(80)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataset.VerticalSplit(d, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"plain", "paillier"} {
		for _, variant := range []vfl.Variant{vfl.VariantFagin, vfl.VariantBase} {
			t.Run(scheme+"/"+string(variant), func(t *testing.T) {
				o := obs.NewObserver(64)
				cl, err := vfl.NewLocalCluster(context.Background(), vfl.ClusterConfig{
					Partition: pt, Scheme: scheme, KeyBits: 256, ShuffleSeed: 7, Batch: 8,
					Obs: o, Instance: "agree",
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				cfg := Config{K: 5, Queries: SampleQueries(80, 6, 1), Variant: variant}
				// A fresh consortium's first round is static and the second
				// packs at the negotiated width, so the third is the first
				// repeat that can reuse blocks.
				for round := 0; round < 3; round++ {
					before := costOps(o.Registry(), "agree")
					sel, err := Select(context.Background(), cl.Leader, 2, cfg)
					if err != nil {
						t.Fatal(err)
					}
					after := costOps(o.Registry(), "agree")
					c := sel.Counts
					for op, v := range map[string]int64{
						"distance_flops": c.DistanceFlops, "encryptions": c.Encryptions,
						"decryptions": c.Decryptions, "cipher_adds": c.CipherAdds,
						"plain_adds": c.PlainAdds, "items_sent": c.ItemsSent, "messages": c.Messages,
						"bytes_sent": c.BytesSent, "framing_bytes": c.FramingBytes,
						"cache_hits": c.CacheHits, "cache_misses": c.CacheMisses,
					} {
						if moved := after[op] - before[op]; moved != v {
							t.Errorf("round %d: Counts has %s = %d, the node counters moved %d", round, op, v, moved)
						}
					}
					// A repeat may reuse every block and encrypt none.
					if c.Encryptions+c.CacheHits == 0 || c.WireBytes() == 0 {
						t.Fatalf("round %d counted nothing: %v", round, c)
					}
					if scheme == "paillier" && round == 2 && c.CacheHits == 0 {
						t.Errorf("the repeat round booked no delta-cache hits: %v", c)
					}
				}
			})
		}
	}
}
