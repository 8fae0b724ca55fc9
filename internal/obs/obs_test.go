package obs

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every instrument reachable from a nil registry/tracer/observer must be
	// a no-op: this is the "disabled observability costs one nil check"
	// contract the hot paths rely on.
	var r *Registry
	r.Counter("c_total", "c", "l").With("x").Inc()
	r.Gauge("g", "g").With().Set(3)
	r.Gauge("g2", "g", "l").Func(func() float64 { return 1 }, "x")
	r.Histogram("h_seconds", "h", nil).With().Observe(0.1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}

	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	sp.SetLabel("k", "v")
	sp.SetLabelInt("n", 1)
	sp.End()
	if sp != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer must not attach a span to ctx")
	}
	if rep := tr.Report(); rep.Capacity != 0 || len(rep.Spans) != 0 {
		t.Fatalf("nil tracer report = %+v", rep)
	}

	var o *Observer
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
	if o.Or(nil) != nil {
		t.Fatal("nil.Or(nil) must be nil")
	}
	enabled := NewObserver(4)
	if o.Or(enabled) != enabled {
		t.Fatal("nil.Or(x) must be x")
	}
	if enabled.Or(nil) != enabled {
		t.Fatal("x.Or(nil) must be x")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("calls_total", "calls", "peer")
	c.With("a").Add(3)
	c.With("a").Inc()
	c.With("b").Inc()
	c.With("a").Add(-5) // ignored: counters are monotone
	if got := c.With("a").Value(); got != 4 {
		t.Fatalf("counter a = %d, want 4", got)
	}
	if got := c.With("b").Value(); got != 1 {
		t.Fatalf("counter b = %d, want 1", got)
	}

	g := r.Gauge("depth", "depth")
	g.With().Set(7)
	g.With().Add(-2.5)
	if got := g.With().Value(); got != 4.5 {
		t.Fatalf("gauge = %g, want 4.5", got)
	}

	gv := r.Gauge("pull", "pull", "i")
	gv.Func(func() float64 { return 42 }, "x")
	if got := gv.With("x").Value(); got != 42 {
		t.Fatalf("pull gauge = %g, want 42", got)
	}
}

// TestDeleteSeries removes exactly the series whose labels carry every given
// pair, in every family that has those labels, and leaves the rest — other
// values, and families without one of the labels — alone.
func TestDeleteSeries(t *testing.T) {
	r := New()
	cost := r.Gauge("cost", "cost", "instance", "role")
	calls := r.Counter("calls_total", "calls", "peer", "method")
	other := r.Counter("other_total", "other", "role")
	cost.Func(func() float64 { return 1 }, "a", "party/1")
	cost.Func(func() float64 { return 2 }, "b", "party/1")
	cost.Func(func() float64 { return 3 }, "a", "party/2")
	calls.With("party/1", "x").Inc()
	calls.With("party/1", "y").Inc()
	calls.With("party/2", "x").Inc()
	other.With("party/1").Inc()

	if n := r.DeleteSeries(map[string]string{"instance": "a", "role": "party/1"}); n != 1 {
		t.Fatalf("deleted %d cost series, want 1", n)
	}
	if n := r.DeleteSeries(map[string]string{"peer": "party/1"}); n != 2 {
		t.Fatalf("deleted %d call series, want 2", n)
	}
	var left []string
	for _, f := range r.Snapshot() {
		for _, s := range f.Series {
			left = append(left, fmt.Sprintf("%s%v", f.Name, s.Labels))
		}
	}
	want := []string{"calls_total" + fmt.Sprint(map[string]string{"peer": "party/2", "method": "x"}),
		"cost" + fmt.Sprint(map[string]string{"instance": "b", "role": "party/1"}),
		"cost" + fmt.Sprint(map[string]string{"instance": "a", "role": "party/2"}),
		"other_total" + fmt.Sprint(map[string]string{"role": "party/1"})}
	if !slices.Equal(left, want) {
		t.Fatalf("series left %v, want %v", left, want)
	}
	// A deleted series comes back fresh when resolved again.
	if got := calls.With("party/1", "x").Value(); got != 0 {
		t.Fatalf("re-resolved deleted counter = %d, want 0", got)
	}
	var nilReg *Registry
	if n := nilReg.DeleteSeries(map[string]string{"peer": "x"}); n != 0 {
		t.Fatalf("nil registry deleted %d series", n)
	}
}

// TestDeleteSeriesConcurrent races deletions against series creation,
// pull-gauge installs and scrapes; run it under -race.
func TestDeleteSeriesConcurrent(t *testing.T) {
	r := New()
	calls := r.Counter("calls_total", "calls", "peer")
	cost := r.Gauge("cost", "cost", "role")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				peer := fmt.Sprintf("party/%d", i%8)
				switch g {
				case 0:
					calls.With(peer).Inc()
				case 1:
					cost.Func(func() float64 { return 1 }, peer)
				case 2:
					r.DeleteSeries(map[string]string{"peer": peer})
					r.DeleteSeries(map[string]string{"role": peer})
				default:
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHistogramBinning(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.With().Observe(v)
	}
	d := h.With().Snapshot()
	// 0.05 and 0.1 land in the <=0.1 bucket (SearchFloat64s: first bound >= v),
	// 0.5 in <=1, 2 in <=10, 100 overflows to +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if d.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, d.Counts[i], w, d.Counts)
		}
	}
	if d.Count != 5 {
		t.Fatalf("count = %d, want 5", d.Count)
	}
	if math.Abs(d.Sum-102.65) > 1e-9 {
		t.Fatalf("sum = %g, want 102.65", d.Sum)
	}
}

func TestHistogramMerge(t *testing.T) {
	r := New()
	h := r.Histogram("m_seconds", "m", []float64{1, 2}, "l")
	h.With("a").Observe(0.5)
	h.With("a").Observe(1.5)
	h.With("b").Observe(5)
	all, err := h.MergeAll()
	if err != nil {
		t.Fatalf("MergeAll: %v", err)
	}
	if all.Count != 3 || all.Counts[0] != 1 || all.Counts[1] != 1 || all.Counts[2] != 1 {
		t.Fatalf("merged = %+v", all)
	}

	// Merging into an empty snapshot keeps the populated side.
	got, err := HistogramData{}.Merge(all)
	if err != nil || got.Count != 3 {
		t.Fatalf("empty.Merge = %+v, %v", got, err)
	}
	// Mismatched layouts must refuse rather than misbin.
	other := HistogramData{Buckets: []float64{1, 3}, Counts: []int64{0, 0, 1}, Count: 1}
	if _, err := all.Merge(other); err == nil {
		t.Fatal("merge with mismatched bounds must error")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	// Hammer one family of each kind from many goroutines while a reader
	// scrapes; run under -race this is the concurrency contract test.
	r := New()
	c := r.Counter("cc_total", "cc", "w")
	g := r.Gauge("cg", "cg")
	h := r.Histogram("ch_seconds", "ch", LatencyBuckets, "w")

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.With(lbl).Inc()
				g.With().Add(1)
				g.With().Add(-1)
				h.With(lbl).Observe(float64(i) * 1e-4)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	var total int64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		total += c.With(lbl).Value()
	}
	if total != workers*iters {
		t.Fatalf("counter total = %d, want %d", total, workers*iters)
	}
	if got := g.With().Value(); got != 0 {
		t.Fatalf("gauge = %g, want 0", got)
	}
	all, err := h.MergeAll()
	if err != nil || all.Count != workers*iters {
		t.Fatalf("histogram count = %d (%v), want %d", all.Count, err, workers*iters)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	c := r.Counter("vfps_test_calls_total", "Calls made.", "peer", "method")
	c.With("party/0", "Distances").Add(3)
	c.With("leader", "Decrypt").Inc()
	r.Gauge("vfps_test_depth", "Pool depth.").With().Set(2.5)
	h := r.Histogram("vfps_test_seconds", "Latency.", []float64{0.1, 1}, "op")
	h.With("enc").Observe(0.05)
	h.With("enc").Observe(0.5)
	h.With("enc").Observe(7)
	// Declared but empty family still emits HELP/TYPE so smoke tests can
	// assert the surface before traffic.
	r.Counter("vfps_test_errors_total", "Errors.", "peer")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP vfps_test_calls_total Calls made.
# TYPE vfps_test_calls_total counter
vfps_test_calls_total{peer="party/0",method="Distances"} 3
vfps_test_calls_total{peer="leader",method="Decrypt"} 1
# HELP vfps_test_depth Pool depth.
# TYPE vfps_test_depth gauge
vfps_test_depth 2.5
# HELP vfps_test_errors_total Errors.
# TYPE vfps_test_errors_total counter
# HELP vfps_test_seconds Latency.
# TYPE vfps_test_seconds histogram
vfps_test_seconds_bucket{op="enc",le="0.1"} 1
vfps_test_seconds_bucket{op="enc",le="1"} 2
vfps_test_seconds_bucket{op="enc",le="+Inf"} 3
vfps_test_seconds_sum{op="enc"} 7.55
vfps_test_seconds_count{op="enc"} 3
`
	if b.String() != want {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestRedeclareMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dup", "d", "l")
	for name, fn := range map[string]func(){
		"kind":  func() { r.Gauge("dup", "d", "l") },
		"arity": func() { r.Counter("dup", "d", "l", "extra") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch must panic", name)
				}
			}()
			fn()
		}()
	}
	// Identical redeclaration is idempotent and shares state.
	r.Counter("dup", "d", "l").With("x").Inc()
	if got := r.Counter("dup", "d", "l").With("x").Value(); got != 1 {
		t.Fatalf("redeclared counter = %d, want 1", got)
	}
}

func TestTracerNestingAndPhases(t *testing.T) {
	tr := NewTracer(16)
	ctx := context.Background()

	rctx, root := tr.Start(ctx, "phase1")
	cctx, child := tr.Start(rctx, "child")
	if SpanFromContext(cctx) != child {
		t.Fatal("ctx must carry the innermost span")
	}
	child.SetLabelInt("n", 7)
	time.Sleep(time.Millisecond)
	child.End()
	child.End() // idempotent
	root.End()
	_, root2 := tr.Start(ctx, "phase2")
	root2.End()

	rep := tr.Report()
	if len(rep.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(rep.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range rep.Spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["phase1"].ID {
		t.Fatalf("child parent = %d, want %d", byName["child"].Parent, byName["phase1"].ID)
	}
	if byName["child"].Labels["n"] != "7" {
		t.Fatalf("child labels = %v", byName["child"].Labels)
	}
	if byName["child"].DurationNs <= 0 {
		t.Fatal("ended span must have positive duration")
	}
	// Phases aggregate root spans only: the child must not appear.
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "phase1" || rep.Phases[1].Name != "phase2" {
		t.Fatalf("phases = %+v", rep.Phases)
	}
	if rep.Phases[0].TotalNs < byName["child"].DurationNs {
		t.Fatal("parent phase must cover its child's duration")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "s")
		sp.End()
	}
	rep := tr.Report()
	if len(rep.Spans) != 4 || rep.Dropped != 6 || rep.Capacity != 4 {
		t.Fatalf("ring state: spans=%d dropped=%d cap=%d", len(rep.Spans), rep.Dropped, rep.Capacity)
	}
	tr.Reset()
	if tr.Len() != 0 || len(tr.Report().Spans) != 0 {
		t.Fatal("reset must discard retained spans")
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, sp := tr.Start(context.Background(), "op")
				_, inner := tr.Start(ctx, "inner")
				inner.End()
				sp.End()
			}
		}()
	}
	go func() {
		for i := 0; i < 20; i++ {
			_ = tr.Report()
		}
	}()
	wg.Wait()
	if tr.Len() != 256 {
		t.Fatalf("ring should be full: %d", tr.Len())
	}
}
