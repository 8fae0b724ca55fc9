package costmodel

import "vfps/internal/obs"

// metricCostOps is the gauge family bridging Raw counts into the metrics
// registry. Each series carries the paper's symbol as a label value so
// dashboards can plot β/φe/φd/γ/δ/η side by side per role.
const metricCostOps = "vfps_cost_ops"

// opFields maps exported op names to Raw field accessors; the op label values
// double as the paper symbols documented on Raw.
var opFields = []struct {
	op  string
	get func(Raw) int64
}{
	{"distance_flops", func(r Raw) int64 { return r.DistanceFlops }}, // β
	{"encryptions", func(r Raw) int64 { return r.Encryptions }},      // φe
	{"decryptions", func(r Raw) int64 { return r.Decryptions }},      // φd
	{"cipher_adds", func(r Raw) int64 { return r.CipherAdds }},       // γ
	{"plain_adds", func(r Raw) int64 { return r.PlainAdds }},         // δ
	{"items_sent", func(r Raw) int64 { return r.ItemsSent }},         // η
	{"messages", func(r Raw) int64 { return r.Messages }},
	{"bytes_sent", func(r Raw) int64 { return r.BytesSent }},
	{"framing_bytes", func(r Raw) int64 { return r.FramingBytes }},
	{"cache_hits", func(r Raw) int64 { return r.CacheHits }},
	{"cache_misses", func(r Raw) int64 { return r.CacheMisses }},
}

// DeclareMetrics pre-declares the cost-model gauge family on reg so it shows
// up on /metrics before any protocol traffic. Safe on a nil registry.
func DeclareMetrics(reg *obs.Registry) {
	declareCost(reg)
}

func declareCost(reg *obs.Registry) *obs.GaugeVec {
	return reg.Gauge(metricCostOps,
		"Protocol operation counts per role, cumulative since the role started (paper cost symbols: distance_flops=β, encryptions=φe, decryptions=φd, cipher_adds=γ, plain_adds=δ, items_sent=η).",
		"instance", "role", "op")
}

// Register exposes the counter as gauge series
// vfps_cost_ops{instance,role,op}. The gauges read the counter on scrape, so
// they follow every Add with no extra work on the protocol hot path.
// Registering the same (instance, role) again rebinds the series to c.
func (c *Counts) Register(reg *obs.Registry, instance, role string) {
	if c == nil || reg == nil {
		return
	}
	g := declareCost(reg)
	for _, f := range opFields {
		get := f.get
		g.Func(func() float64 { return float64(get(c.Snapshot())) }, instance, role, f.op)
	}
}
