package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go checks the two
// stay identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the library or a tenant of the server sees.
// Bytes and HE ops are reported per candidate instance (the paper's Fig. 9
// unit of work) because a selection's candidate count depends on which rows
// the seed samples as queries; per candidate they are exact across seeds.
var endToEnd = []metricDef{
	{"select_p50_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_selection", "s", "lower", 0.25},
	{"candidates_per_query", "count", "lower", 0.25},
	{"wire_bytes_per_candidate", "B", "lower", 0.01},
	{"he_ops_per_candidate", "ops", "lower", 0.005},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced-pass and probe metrics; the layer is the prefix
// (a package name). README.md says which end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "core.select_s", Unit: "s", Better: "lower"},
		{Name: "core.first_select_s", Unit: "s", Better: "lower"},
		{Name: "vfl.leader.self_s", Unit: "s", Better: "lower"},
		{Name: "vfl.agg.self_s", Unit: "s", Better: "lower"},
		{Name: "vfl.party.rank_s", Unit: "s", Better: "lower"},
		{Name: "vfl.party.rank_calls", Unit: "count", Better: "lower"},
		{Name: "vfl.party.encrypt_s", Unit: "s", Better: "lower"},
		{Name: "vfl.party.neighbor_s", Unit: "s", Better: "lower"},
		{Name: "vfl.party.straggler_ratio", Unit: "ratio", Better: "lower"},
		{Name: "vfl.candidates_per_query", Unit: "count", Better: "lower"},
	}
	for _, what := range []struct{ name, unit string }{{"calls", "count"}, {"req_bytes", "B"}, {"resp_bytes", "B"}} {
		for _, class := range rpcClasses {
			defs = append(defs, metricDef{Name: "vfl.rpc." + what.name + "." + class, Unit: what.unit, Better: "lower"})
		}
	}
	return append(defs, []metricDef{
		{Name: "transport.net_s", Unit: "s", Better: "lower"},
		{Name: "transport.calls", Unit: "count", Better: "lower"},
		{Name: "transport.bytes", Unit: "B", Better: "lower"},
		{Name: "he.encryptions", Unit: "ops", Better: "lower"},
		{Name: "he.decryptions", Unit: "ops", Better: "lower"},
		{Name: "he.cipher_adds", Unit: "ops", Better: "lower"},
		{Name: "he.encrypt_us_effective", Unit: "us", Better: "lower"},
		{Name: "he.decrypt_us_effective", Unit: "us", Better: "lower"},
		{Name: "he.add_us_effective", Unit: "us", Better: "lower"},
		{Name: "wire.payload_bytes", Unit: "B", Better: "lower"},
		{Name: "wire.framing_bytes", Unit: "B", Better: "lower"},
		{Name: "submod.evaluations", Unit: "count", Better: "lower"},
		{Name: "costmodel.projected_over_measured", Unit: "ratio", Better: "lower"},
		{Name: "par.cpu_utilization", Unit: "ratio", Better: "higher"},
		{Name: "runtime.alloc_mb_per_selection", Unit: "MB", Better: "lower"},
		{Name: "runtime.gc_pause_ms_per_selection", Unit: "ms", Better: "lower"},
		{Name: "runtime.goroutines_leaked", Unit: "count", Better: "lower"},
		{Name: "server.select_s", Unit: "s", Better: "lower"},
		{Name: "server.join_s", Unit: "s", Better: "lower"},
		{Name: "server.leave_s", Unit: "s", Better: "lower"},
		{Name: "server.create_s", Unit: "s", Better: "lower"},
		{Name: "server.overhead_s", Unit: "s", Better: "lower"},
		{Name: "server.repeat_over_fresh", Unit: "ratio", Better: "lower"},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "paillier.keygen_s", Unit: "s", Better: "lower"},
		{Name: "paillier.encrypt_us", Unit: "us", Better: "lower"},
		{Name: "paillier.add_us", Unit: "us", Better: "lower"},
		{Name: "paillier.decrypt_us", Unit: "us", Better: "lower"},
		{Name: "mont.expbig_us", Unit: "us", Better: "lower"},
		{Name: "mat.sqdist_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "topk.rank_ms", Unit: "ms", Better: "lower"},
		{Name: "topk.fagin_ms", Unit: "ms", Better: "lower"},
		{Name: "submod.greedy_us", Unit: "us", Better: "lower"},
		{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
		{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
	}...)
}()

// catalogue is the list of metrics a pass reports.
func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 {
		return (time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond).Seconds()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
