// Package obs is the stdlib-only observability substrate of the VFPS
// runtime: a concurrent metrics registry (counters, gauges and fixed-bucket
// histograms with labels, exported in Prometheus text format and as JSON), a
// lightweight span tracer that records the selection protocol's phases into
// a bounded ring buffer, and HTTP handlers that surface both plus the
// standard expvar/pprof introspection endpoints.
//
// Everything in this package is nil-safe: a nil *Registry, *Tracer,
// *Observer or any instrument obtained from one degrades to a no-op, so
// instrumented code paths cost a single nil check when observability is
// disabled (the default). Components therefore accept an observer without
// guarding call sites:
//
//	var reg *obs.Registry // nil: disabled
//	calls := reg.Counter("vfps_calls_total", "calls", "peer")
//	calls.With("party/0").Inc() // no-op, no allocation
//
// Metric names follow the Prometheus conventions (snake case, _total for
// counters, unit suffixes _seconds/_bytes for histograms). The phase metrics
// map onto the paper's cost symbols through internal/costmodel's gauge
// bridge; see DESIGN.md §7 for the full correspondence.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families.
type Kind string

// The metric kinds, named after their Prometheus TYPE line.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry is a set of named metric families. The zero value is not usable;
// call New. A nil *Registry is a valid no-op sink. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and a series per
// distinct label-value combination.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds, ascending, +Inf implicit

	mu     sync.RWMutex
	series map[string]*series
	order  []string // insertion order of series keys
}

// series is one labelled time series.
type series struct {
	labelVals []string
	n         atomic.Int64                   // counter value
	f         atomic.Uint64                  // gauge value (float64 bits)
	fn        atomic.Pointer[func() float64] // pull gauge; set and read unlocked
	h         *histo
}

// seriesSep joins label values into map keys; label values containing it are
// rejected nowhere (it is an unlikely byte in metric labels) but would only
// merge series, never corrupt state.
const seriesSep = "\x1f"

// lookup returns the family, creating it on first use. Redeclaring a family
// with the same schema is idempotent; a kind or label-arity mismatch panics,
// as it is a programming error that would silently corrupt the export.
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labelNames []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{
				name:       name,
				help:       help,
				kind:       kind,
				labelNames: append([]string(nil), labelNames...),
				buckets:    append([]float64(nil), buckets...),
				series:     make(map[string]*series),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", name, kind, f.kind))
	}
	if len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %q redeclared with %d labels (was %d)", name, len(labelNames), len(f.labelNames)))
	}
	return f
}

// with returns the series for the given label values, creating it on first
// use.
func (f *family) with(labelVals []string) *series {
	if len(labelVals) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(labelVals)))
	}
	key := strings.Join(labelVals, seriesSep)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelVals: append([]string(nil), labelVals...)}
	if f.kind == KindHistogram {
		s.h = newHisto(f.buckets)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// DeleteSeries removes every series, in every family, whose labels carry all
// the given name → value pairs; a family lacking one of the names keeps its
// series. It returns how many series went. Callers use it when the thing a
// label names is gone for good (a departed party), so neither the series nor
// a pull gauge's closure outlives it. Resolving the same label values again
// starts a fresh series at zero. Safe on a nil registry.
func (r *Registry) DeleteSeries(match map[string]string) int {
	if r == nil || len(match) == 0 {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	deleted := 0
	for _, f := range r.families {
		deleted += f.deleteSeries(match)
	}
	return deleted
}

func (f *family) deleteSeries(match map[string]string) int {
	idx := make(map[int]string, len(match))
	for i, name := range f.labelNames {
		if v, ok := match[name]; ok {
			idx[i] = v
		}
	}
	if len(idx) != len(match) {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.order[:0]
	for _, key := range f.order {
		s := f.series[key]
		hit := true
		for i, v := range idx {
			hit = hit && s.labelVals[i] == v
		}
		if hit {
			delete(f.series, key)
			continue
		}
		kept = append(kept, key)
	}
	deleted := len(f.order) - len(kept)
	clear(f.order[len(kept):])
	f.order = kept
	return deleted
}

// ---- counters ----

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ fam *family }

// Counter declares (or finds) a counter family. A nil registry returns a nil
// vec, whose instruments are no-ops.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.lookup(name, help, KindCounter, nil, labelNames)}
}

// With resolves the counter for the given label values.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.fam.with(labelVals)}
}

// Counter is one counter series.
type Counter struct{ s *series }

// Add increases the counter; negative deltas are ignored (counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.s.n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.n.Load()
}

// ---- gauges ----

// GaugeVec is a family of instantaneous values.
type GaugeVec struct{ fam *family }

// Gauge declares (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.lookup(name, help, KindGauge, nil, labelNames)}
}

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.fam.with(labelVals)}
}

// Func installs a pull gauge: fn is evaluated at scrape time. Re-installing
// for the same label values replaces the previous function.
func (v *GaugeVec) Func(fn func() float64, labelVals ...string) {
	if v == nil {
		return
	}
	v.fam.with(labelVals).fn.Store(&fn)
}

// Gauge is one gauge series.
type Gauge struct{ s *series }

// Set stores the value.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.s.f.Store(math.Float64bits(x))
}

// Add shifts the value by dx (CAS loop; safe for concurrent use).
func (g *Gauge) Add(dx float64) {
	if g == nil {
		return
	}
	for {
		old := g.s.f.Load()
		if g.s.f.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+dx)) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.value()
}

// value resolves a series' scalar at scrape time. Callers must hold no
// family lock when the series has a pull function that might block.
func (s *series) value() float64 {
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(s.f.Load())
}

// ---- histograms ----

// histo is the lock-free histogram state: cumulative-at-export fixed
// buckets, atomic per-bucket counts, and a CAS-accumulated float sum.
type histo struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

func newHisto(bounds []float64) *histo {
	return &histo{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histo) observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramVec is a family of fixed-bucket histograms.
type HistogramVec struct{ fam *family }

// Histogram declares (or finds) a histogram family with the given ascending
// bucket upper bounds (the +Inf bucket is implicit). buckets must not be
// empty and is captured on first declaration.
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.lookup(name, help, KindHistogram, buckets, labelNames)}
}

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{s: v.fam.with(labelVals)}
}

// Histogram is one histogram series.
type Histogram struct{ s *series }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.s.h.observe(v)
}

// ObserveSince records the elapsed seconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.s.h.observe(time.Since(t0).Seconds())
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramData {
	if h == nil {
		return HistogramData{}
	}
	return h.s.h.snapshot()
}

func (h *histo) snapshot() HistogramData {
	d := HistogramData{
		Buckets: append([]float64(nil), h.bounds...),
		Counts:  make([]int64, len(h.counts)),
		Sum:     math.Float64frombits(h.sum.Load()),
		Count:   h.count.Load(),
	}
	for i := range h.counts {
		d.Counts[i] = h.counts[i].Load()
	}
	return d
}

// HistogramData is a plain-value histogram snapshot. Counts has one entry
// per bucket plus the trailing +Inf overflow bucket; entries are per-bucket
// (not cumulative).
type HistogramData struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Sum     float64   `json:"sum"`
	Count   int64     `json:"count"`
}

// Merge returns the element-wise sum of two snapshots. The bucket layouts
// must match exactly; merging histograms with different bounds would silently
// misbin samples, so that is an error.
func (d HistogramData) Merge(o HistogramData) (HistogramData, error) {
	if len(o.Buckets) == 0 && o.Count == 0 {
		return d, nil
	}
	if len(d.Buckets) == 0 && d.Count == 0 {
		return o, nil
	}
	if len(d.Buckets) != len(o.Buckets) {
		return HistogramData{}, fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(d.Buckets), len(o.Buckets))
	}
	for i := range d.Buckets {
		if d.Buckets[i] != o.Buckets[i] {
			return HistogramData{}, fmt.Errorf("obs: bucket bound mismatch at %d: %g vs %g", i, d.Buckets[i], o.Buckets[i])
		}
	}
	out := HistogramData{
		Buckets: append([]float64(nil), d.Buckets...),
		Counts:  make([]int64, len(d.Counts)),
		Sum:     d.Sum + o.Sum,
		Count:   d.Count + o.Count,
	}
	for i := range d.Counts {
		out.Counts[i] = d.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// MergeAll merges every series of the family into one histogram — the
// cross-label total (e.g. call latency over all peers and methods).
func (v *HistogramVec) MergeAll() (HistogramData, error) {
	if v == nil {
		return HistogramData{}, nil
	}
	v.fam.mu.RLock()
	defer v.fam.mu.RUnlock()
	var out HistogramData
	var err error
	for _, key := range v.fam.order {
		out, err = out.Merge(v.fam.series[key].h.snapshot())
		if err != nil {
			return HistogramData{}, err
		}
	}
	return out, nil
}

// ---- standard bucket layouts ----

// DefBuckets is the fallback bucket layout (Prometheus' classic defaults).
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// LatencyBuckets spans 10 µs … 10 s, sized for both sub-millisecond
// in-process RPCs and paper-grade HE operations.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets spans 64 B … 16 MiB message payloads.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536,
	262144, 1048576, 4194304, 16777216,
}
