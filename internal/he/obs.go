package he

import (
	"time"

	"vfps/internal/obs"
)

// Metric families recorded by the Paillier scheme. The instance label
// distinguishes the public (participant/aggregator) and private (leader)
// scheme copies sharing one registry.
const (
	metricOps        = "vfps_he_ops_total"
	metricOpSecs     = "vfps_he_op_seconds"
	metricPoolDepth  = "vfps_he_randomizer_pool_depth"
	metricPackRatio  = "vfps_he_pack_ratio"
	metricPackSlots  = "vfps_he_pack_slots"
	metricDecSecs    = "vfps_he_decrypt_seconds"
	metricPoolErrs   = "vfps_paillier_pool_errors"
	metricFallbackRt = "vfps_he_randomizer_fallback_rate"
)

// DeclareMetrics pre-declares the HE metric families on reg so they are
// visible on /metrics before the first operation. Safe on a nil registry.
func DeclareMetrics(reg *obs.Registry) {
	declareHE(reg)
}

// heFams bundles the declared HE metric families; declareHE is idempotent on
// a registry, so roles and schemes can each declare without coordination.
type heFams struct {
	ops      *obs.CounterVec
	secs     *obs.HistogramVec
	depth    *obs.GaugeVec
	pack     *obs.GaugeVec
	slots    *obs.GaugeVec
	dec      *obs.HistogramVec
	poolErrs *obs.CounterVec
	fall     *obs.GaugeVec
}

func declareHE(reg *obs.Registry) heFams {
	return heFams{
		ops:      reg.Counter(metricOps, "Homomorphic-encryption operations performed (φe/φd/γ in the paper's cost model).", "scheme", "instance", "op"),
		secs:     reg.Histogram(metricOpSecs, "HE operation latency in seconds; *_vec entries time whole vector calls.", obs.LatencyBuckets, "scheme", "instance", "op"),
		depth:    reg.Gauge(metricPoolDepth, "Precomputed Paillier randomizers currently pooled (0 once the pool closes).", "instance"),
		pack:     reg.Gauge(metricPackRatio, "Values carried per ciphertext (slot-packing factor S; 1 = unpacked).", "instance"),
		slots:    reg.Gauge(metricPackSlots, "Slot count S chosen for the most recent packed encrypt/decrypt call; adaptive negotiation lifts it above the static geometry.", "instance"),
		dec:      reg.Histogram(metricDecSecs, "Whole-call decryption latency in seconds, split by CRT fast-path use.", obs.LatencyBuckets, "instance", "crt"),
		poolErrs: reg.Counter(metricPoolErrs, "Entropy failures while producing pool randomizers; each is retried with capped backoff, never fatal to a worker.", "instance"),
		fall:     reg.Gauge(metricFallbackRt, "Fraction of randomizer draws that missed the pool and computed inline (0 = every encryption hit the precomputed fast path).", "instance"),
	}
}

// heMetrics is the resolved instrument set, installed atomically so the hot
// path pays one pointer load when observability is off.
type heMetrics struct {
	instance  string
	ops       *obs.CounterVec
	secs      *obs.HistogramVec
	decSecs   *obs.HistogramVec
	poolErrs  *obs.CounterVec
	packSlots *obs.GaugeVec
}

// op records one scalar operation; it is used as a defer with time.Now()
// evaluated at registration, so the observed duration spans the whole call.
func (m *heMetrics) op(op string, start time.Time) {
	if m == nil {
		return
	}
	m.ops.With("paillier", m.instance, op).Inc()
	m.secs.With("paillier", m.instance, op).ObserveSince(start)
}

// vec records a whole-vector call: n scalar ops on the base counter plus one
// "<op>_vec" latency sample covering the batch.
func (m *heMetrics) vec(op string, n int, start time.Time) {
	if m == nil {
		return
	}
	m.ops.With("paillier", m.instance, op).Add(int64(n))
	m.secs.With("paillier", m.instance, op+"_vec").ObserveSince(start)
}

// slots records the pack factor a packed call actually used, so adaptive
// density is visible live instead of only in benchmark output.
func (m *heMetrics) slots(s int) {
	if m == nil {
		return
	}
	m.packSlots.With(m.instance).Set(float64(s))
}

// dec records one whole decryption call (scalar, vector or packed) on the
// CRT-labelled latency histogram, so the fast-path win shows up directly in
// /metrics instead of only in offline benchmarks.
func (m *heMetrics) dec(crt bool, start time.Time) {
	if m == nil {
		return
	}
	label := "off"
	if crt {
		label = "on"
	}
	m.decSecs.With(m.instance, label).ObserveSince(start)
}

// SetObserver implements Scheme: it installs op counters and latency
// histograms on the scheme and registers the randomizer-pool depth and
// pack-ratio gauges, all labelled with instance (e.g. "public", "leader", or
// a node role). A nil registry restores the no-op default.
func (p *Paillier) SetObserver(reg *obs.Registry, instance string) {
	if reg == nil {
		p.om.Store(nil)
		return
	}
	fams := declareHE(reg)
	p.om.Store(&heMetrics{instance: instance, ops: fams.ops, secs: fams.secs,
		decSecs: fams.dec, poolErrs: fams.poolErrs, packSlots: fams.slots})
	fams.depth.Func(func() float64 {
		if rz := p.pool(); rz != nil {
			return float64(rz.Depth())
		}
		return 0
	}, instance)
	fams.pack.Func(func() float64 { return float64(p.PackFactor()) }, instance)
	fams.fall.Func(func() float64 {
		rz := p.pool()
		if rz == nil {
			return 0
		}
		s := rz.Stats()
		total := s.Hits + s.Misses
		if total == 0 {
			return 0
		}
		return float64(s.Misses) / float64(total)
	}, instance)
	p.syncPoolObs()
}

// syncPoolObs bridges the pool's entropy-failure counter to the registry.
// Called whenever either side appears (SetObserver, StartRandomizerPool), so
// the hook lands regardless of wiring order.
func (p *Paillier) syncPoolObs() {
	om := p.om.Load()
	rz := p.pool()
	if om == nil || om.poolErrs == nil || rz == nil {
		return
	}
	ctr := om.poolErrs.With(om.instance)
	rz.SetErrorHook(func() { ctr.Inc() })
}
