package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"time"

	"vfps"
	"vfps/internal/core"
	"vfps/internal/vfl"
)

// shape pins one workload. Only the protocol-level fields below are ever set
// on the library (default-knob policy, README.md): no Pack, Wire, DeltaCache,
// Parallelism, Mont, …
type shape struct {
	name, why string
	dataset   string
	rows      int
	parties   int
	pick      int // participants to select
	queries   int // KNN queries per selection
	scheme    string
	keyBits   int  // Paillier modulus and HE probe size; the plain scheme ignores it
	tcp       bool // every role behind a loopback socket
	serve     bool // driven through the HTTP server
	// oracleAll checks every timed selection against the BASE twin; when
	// false only the first is (BASE encrypts all N rows per query, which at
	// rows_plain's N costs more than the timed window).
	oracleAll bool
}

const (
	knnK = 10
	// splitSeed pins the vertical partition: the consortium is the fixed
	// deployment under test, and --seed draws what arrives at it (query
	// samples, pseudo-ID shuffle, joiner noise). Drawing the partition from
	// the seed too would move every metric by ±20 % between seeds, which no
	// amount of averaging inside a run removes.
	splitSeed = 1
)

var workloads = []shape{
	{name: "fagin_he", dataset: "Bank", rows: 384, parties: 4, pick: 2, queries: 2, scheme: "paillier", keyBits: 2048, oracleAll: true,
		why: "Paper's headline path via the public API: 2048-bit Paillier Fagin selection, Fagin pruning half of 384 rows and HE doing over 90% of the work; any mont/paillier/he/packing/par/pruning gain shows here."},
	{name: "rows_plain", dataset: "SUSY", rows: 100000, parties: 4, pick: 2, queries: 4, scheme: "plain", keyBits: 2048,
		why: "Takes HE out: time goes to per-party distance+sort over 100k rows, ranked-list streaming, Fagin merge, encode and allocation; an HE-kernel change must not move it."},
	{name: "wide_tcp", dataset: "Credit", rows: 128, parties: 16, pick: 8, queries: 1, scheme: "paillier", keyBits: 2048, tcp: true, oracleAll: true,
		why: "16 parties each behind a real loopback socket: 15 cipher adds per candidate, 16-way fan-out set by the slowest party, 16x16 greedy; only workload where codec/framing/socket changes move time."},
	{name: "serve_churn", dataset: "Bank", rows: 64, parties: 6, pick: 3, queries: 2, scheme: "paillier", keyBits: 2048, serve: true, oracleAll: true,
		why: "Two tenants contend through the HTTP server with repeated query sets and join/leave between selects; shows caching that helps repeats but hurts joins, and parallelism that starves a second tenant."},
}

func workloadByName(name string) (shape, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return shape{}, false
}

// querySeed gives selection i of a run its own query sample, so no query set
// repeats and the parties' 32-entry distance cache never hits unless the
// workload repeats a seed on purpose (serve_churn).
func querySeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// selector is a wired system under test: one selection per call.
type selector struct {
	run   func(ctx context.Context, qseed int64, base bool) (*core.Selection, error)
	close func()
	// bridge is set on tcp shapes.
	bridge *bridge
}

func (sh shape) partition() (*vfps.Dataset, *vfps.Partition, error) {
	d, err := vfps.GenerateDataset(sh.dataset, sh.rows)
	if err != nil {
		return nil, nil, err
	}
	pt, err := vfps.VerticalSplit(d, sh.parties, splitSeed)
	return d, pt, err
}

// buildPublic wires the shape through the public vfps API.
func (sh shape) buildPublic(ctx context.Context, seed int64, scheme string) (*selector, error) {
	d, pt, err := sh.partition()
	if err != nil {
		return nil, err
	}
	cons, err := vfps.NewConsortium(ctx, vfps.Config{
		Partition: pt, Labels: d.Y, Classes: d.Classes,
		Scheme: scheme, KeyBits: sh.keyBits, ShuffleSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &selector{
		run: func(ctx context.Context, qseed int64, base bool) (*core.Selection, error) {
			return cons.Select(ctx, sh.pick, vfps.SelectOptions{K: knnK, NumQueries: sh.queries, Seed: qseed, Base: base})
		},
		close: cons.Close,
	}, nil
}

// buildCluster wires the shape as a vfl cluster whose role handlers the
// benchmark can reach: bridged over TCP when the shape says so, and wrapped
// in spans when rec is non-nil.
func (sh shape) buildCluster(ctx context.Context, seed int64, rec *recorder) (*selector, error) {
	_, pt, err := sh.partition()
	if err != nil {
		return nil, err
	}
	cl, err := vfl.NewLocalCluster(ctx, vfl.ClusterConfig{
		Partition: pt, Scheme: sh.scheme, KeyBits: sh.keyBits, ShuffleSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	s := &selector{close: cl.Close}
	var wrap wrapFunc
	if rec != nil {
		wrap = rec.timed
	}
	if sh.tcp {
		if s.bridge, err = bridgeCluster(cl, wrap); err != nil {
			cl.Close()
			return nil, err
		}
		s.close = func() { s.bridge.Close(); cl.Close() }
	} else if rec != nil {
		instrument(cl, wrap)
	}
	s.run = func(ctx context.Context, qseed int64, base bool) (sel *core.Selection, err error) {
		cfg := core.Config{K: knnK, Queries: core.SampleQueries(sh.rows, sh.queries, qseed)}
		if base {
			cfg.Variant = vfl.VariantBase
		}
		do := func(ctx context.Context) error {
			sel, err = core.Select(ctx, cl.Leader, sh.pick, cfg)
			return err
		}
		if rec != nil {
			return sel, rec.root(ctx, "core.Select", do)
		}
		return sel, do(ctx)
	}
	return s, nil
}

// build wires the shape the way the timed pass runs it.
func (sh shape) build(ctx context.Context, seed int64) (*selector, error) {
	if sh.tcp {
		return sh.buildCluster(ctx, seed, nil)
	}
	return sh.buildPublic(ctx, seed, sh.scheme)
}

// A run builds its system several times and reports the median as setup_s,
// because 2048-bit key generation is a random prime search whose time varies
// by a factor of two: at least setupMin builds, then more while they fit in
// setupBudget, so cheap set-ups get the samples they need.
const (
	setupMin    = 9
	setupMax    = 40
	setupBudget = 6 * time.Second
)

// timedSetup builds repeatedly, keeps the last system and returns the build
// times.
func timedSetup[T any](build func() (T, error), discard func(T)) (T, []float64, error) {
	var none T
	var times []float64
	for start := time.Now(); ; {
		t0 := time.Now()
		sys, err := build()
		if err != nil {
			return none, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if n := len(times); n >= setupMax || (n >= setupMin && time.Since(start) >= setupBudget) {
			return sys, times, nil
		}
		discard(sys)
		// Collect each discarded system before the next is built, so the
		// repeats do not raise the process's RSS high-water mark above what
		// one system and the timed loop need.
		runtime.GC()
	}
}

// outcome is what a run hands to the emitter: every metric it could measure
// by name, and the operations it attempted and failed.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string // why an operation counted as failed
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// sameSelection is the oracle's verdict: identical picks and |ΔW| ≤ 1e-6.
func sameSelection(got, want *core.Selection) error {
	if !slices.Equal(got.Selected, want.Selected) {
		return fmt.Errorf("selected %v, oracle %v", got.Selected, want.Selected)
	}
	for i := range want.W {
		for j := range want.W[i] {
			if d := math.Abs(got.W[i][j] - want.W[i][j]); d > 1e-6 {
				return fmt.Errorf("|ΔW[%d][%d]| = %g", i, j, d)
			}
		}
	}
	return nil
}

type timedSelection struct {
	qseed int64
	sel   *core.Selection
}

// runTimed is the --trace 0 pass of an in-process workload: build, warm up,
// select until the window closes, then check the selections against a
// plain-scheme BASE twin — after the clock and the RSS sample are taken.
func (sh shape) runTimed(ctx context.Context, seed int64, window time.Duration) (*outcome, error) {
	sys, setups, err := timedSetup(
		func() (*selector, error) { return sh.build(ctx, seed) },
		func(s *selector) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if _, err := sys.run(ctx, querySeed(seed, 0), false); err != nil {
		return nil, fmt.Errorf("warm-up selection: %w", err)
	}

	out := &outcome{metrics: map[string]float64{"setup_s": median(setups)}}
	var done []timedSelection
	var durs []float64
	var tcp0 int64
	if sys.bridge != nil {
		tcp0 = sys.bridge.bytes()
	}
	cpu0, start := cpuSeconds(), time.Now()
	for i := 1; i == 1 || time.Since(start) < window; i++ {
		qseed := querySeed(seed, i)
		t0 := time.Now()
		sel, err := sys.run(ctx, qseed, false)
		durs = append(durs, time.Since(t0).Seconds())
		out.attempted++
		if err != nil {
			out.fail("selection %d: %v", i, err)
			continue
		}
		done = append(done, timedSelection{qseed, sel})
	}
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	out.metrics["peak_rss_mb"] = peakRSSMB()
	if len(done) == 0 {
		return out, nil
	}

	var wire, ops, cands float64
	for _, d := range done {
		c := d.sel.Counts
		wire += float64(c.WireBytes())
		ops += float64(c.Encryptions + c.Decryptions + c.CipherAdds)
		cands += d.sel.AvgCandidates * float64(sh.queries)
	}
	n := float64(len(durs))
	out.metrics["select_p50_s"] = median(durs)
	out.metrics["queries_per_s"] = float64(len(done)*sh.queries) / wall
	out.metrics["cpu_s_per_selection"] = cpu / n
	out.metrics["candidates_per_query"] = cands / float64(len(done)*sh.queries)
	out.metrics["wire_bytes_per_candidate"] = wire / cands
	out.metrics["he_ops_per_candidate"] = ops / cands
	if sys.bridge != nil {
		// The sockets must have carried what the cost counters charged; the
		// uncharged node.counts/node.resetCounts calls are the expected gap.
		if tcp := float64(sys.bridge.bytes() - tcp0); math.Abs(tcp-wire) > 0.05*wire {
			out.fail("TCP clients moved %.0f B, cost counters charged %.0f B", tcp, wire)
		}
	}

	twin, err := sh.buildPublic(ctx, seed, "plain")
	if err != nil {
		return nil, fmt.Errorf("oracle twin: %w", err)
	}
	defer twin.close()
	if !sh.oracleAll {
		done = done[:1]
	}
	for _, d := range done {
		want, err := twin.run(ctx, d.qseed, true)
		if err == nil {
			err = sameSelection(d.sel, want)
		}
		if err != nil {
			out.fail("query seed %d vs oracle: %v", d.qseed, err)
		}
	}
	return out, nil
}

// runTraced is the --trace 1 pass: the timed pass's selections on a cluster
// whose every role handler is wrapped in a span.
func (sh shape) runTraced(ctx context.Context, seed int64, window time.Duration, traceOut string) (*outcome, error) {
	goroutines0 := runtime.NumGoroutine()
	rec := newRecorder()
	sys, err := sh.buildCluster(ctx, seed, rec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := sys.run(ctx, querySeed(seed, 0), false); err != nil {
		sys.close()
		return nil, fmt.Errorf("warm-up selection: %w", err)
	}
	out := &outcome{metrics: map[string]float64{"core.first_select_s": time.Since(t0).Seconds()}}
	rec.reset()

	var sels []*core.Selection
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuSeconds(), time.Now()
	for i := 1; i == 1 || time.Since(start) < window; i++ {
		sel, err := sys.run(ctx, querySeed(seed, i), false)
		out.attempted++
		if err != nil {
			out.fail("selection %d: %v", i, err)
			continue
		}
		sels = append(sels, sel)
	}
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&ms1)
	sys.close()
	out.metrics["runtime.goroutines_leaked"] = float64(leakedGoroutines(goroutines0))

	spans := rec.snapshot()
	if traceOut != "" {
		if err := dumpSpans(traceOut, spans); err != nil {
			return nil, err
		}
	}
	if len(sels) == 0 {
		return out, nil
	}
	m := out.metrics
	maps.Copy(m, ledger(spans, len(sels)))
	per := 1 / float64(len(sels))
	var measured float64
	for _, s := range sels {
		c := s.Counts
		m["he.encryptions"] += float64(c.Encryptions) * per
		m["he.decryptions"] += float64(c.Decryptions) * per
		m["he.cipher_adds"] += float64(c.CipherAdds) * per
		m["wire.payload_bytes"] += float64(c.BytesSent) * per
		m["wire.framing_bytes"] += float64(c.FramingBytes) * per
		m["submod.evaluations"] += float64(s.Evaluations) * per
		m["vfl.candidates_per_query"] += s.AvgCandidates * per
		m["costmodel.projected_over_measured"] += s.ProjectedSeconds
		measured += s.WallTime.Seconds()
	}
	m["costmodel.projected_over_measured"] /= measured
	m["he.encrypt_us_effective"] = 1e6 * m["vfl.party.encrypt_s"] / m["he.encryptions"]
	m["he.decrypt_us_effective"] = 1e6 * m["vfl.leader.self_s"] / m["he.decryptions"]
	m["he.add_us_effective"] = 1e6 * m["vfl.agg.self_s"] / m["he.cipher_adds"]
	m["par.cpu_utilization"] = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	m["runtime.alloc_mb_per_selection"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) * per
	m["runtime.gc_pause_ms_per_selection"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 * per
	m["trace.overhead_ratio"] = float64(len(spans)) * per * spanCost(sh.parties, sh.tcp).Seconds() / m["core.select_s"]
	return out, nil
}

// leakedGoroutines counts goroutines beyond the baseline once the closed
// systems' goroutines have had a moment to exit.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-baseline)
}
