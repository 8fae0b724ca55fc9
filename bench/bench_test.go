package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// toy shrinks a workload to smoke-test size: the same code path at N ≤ 64
// and 512-bit keys.
func toy(sh shape) shape {
	sh.rows = min(sh.rows, 64)
	sh.keyBits = 512
	return sh
}

// TestSmoke runs every workload's timed and traced pass once at toy size, so
// a change that breaks an API the benchmark depends on fails tier-1, and
// checks that every metric BENCHMARK.json promises is emitted with its unit.
func TestSmoke(t *testing.T) {
	for _, sh := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := sh.name+"/timed", catalogue(traced)
			if traced {
				name = sh.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				rep, o, err := measure(context.Background(), toy(sh), 3, 0, traced, traceOut)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, o.notes)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || d.Unit == "" {
						t.Errorf("metric %s: emitted %v (present %t), want unit %q", d.Name, m, ok, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, m.Value)
					}
				}
				if !traced {
					return
				}
				if rep.Metrics["runtime.goroutines_leaked"].Value != 0 {
					t.Errorf("goroutines leaked: %v", rep.Metrics["runtime.goroutines_leaked"].Value)
				}
				if sh.serve {
					if rep.Metrics["server.select_s"].Value <= 0 || rep.Metrics["server.join_s"].Value <= 0 {
						t.Errorf("no per-endpoint latencies: %v", rep.Metrics)
					}
					return
				}
				if rep.Metrics["core.select_s"].Value <= 0 || rep.Metrics["vfl.party.encrypt_s"].Value <= 0 {
					t.Errorf("empty ledger: %v", rep.Metrics)
				}
				if net := rep.Metrics["transport.net_s"].Value; (net > 0) != sh.tcp {
					t.Errorf("transport.net_s = %g on a workload with tcp=%t", net, sh.tcp)
				}
				if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("no span dump at -trace-out: %v", err)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the program's
// own catalogue of workloads and metrics identical.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program default %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, program has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nprogram has  %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nprogram has %+v", file.PerLayer, perLayer)
	}
}

func TestCompareFlagsRegressionsByBoundAndDirection(t *testing.T) {
	lower := metricDef{Name: "select_p50_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b float64
		d    metricDef
		want string
	}{
		{1.0, 1.09, lower, "ok"},
		{1.0, 1.11, lower, "regressed"},
		{1.0, 0.80, lower, "improved"},
		{10, 9.2, higher, "ok"},
		{10, 8.9, higher, "regressed"},
		{10, 12, higher, "improved"},
		{10, 0, higher, "missing"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("verdict(%g → %g, %s) = %s, want %s", c.a, c.b, c.d.Name, got, c.want)
		}
	}

	write := func(name string, scale float64) string {
		f := resultFile{Workloads: map[string]map[string]float64{}}
		for _, sh := range workloads {
			f.Workloads[sh.name] = map[string]float64{}
			for _, d := range endToEnd {
				v := 2.0
				if d.Name == "select_p50_s" && sh.name == "wide_tcp" {
					v *= scale
				}
				f.Workloads[sh.name][d.Name] = v
			}
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 1), write("same.json", 1.05), write("slower.json", 1.5)
	var out bytes.Buffer
	if err := compareFiles(&out, []string{a, same}); err != nil {
		t.Errorf("within the bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, []string{a, slower}); err == nil {
		t.Errorf("a 50%% slower wide_tcp passed:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("%d rows, want one per workload and end-to-end metric", rows)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no row marked regressed:\n%s", out.String())
	}
}
