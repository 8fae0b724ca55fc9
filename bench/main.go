// Command bench is the repository's one end-to-end benchmark: four pinned
// workloads on 2048-bit keys, GOMAXPROCS = nproc and the library's default
// configuration, every selection checked against an oracle, and a traced pass
// that times the calls into each layer from outside. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains it.
//
//	go run ./bench --workload fagin_he --seed 1 --seconds 20 --trace 0
//	go run ./bench -seed 1 -out a.json        # all workloads, both passes
//	go run ./bench -compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the default timed window.
const runSeconds = 20

// maxTraceOverhead gates the all-workloads report: wrapping every role
// handler in a span may not slow a selection by more than this share.
const maxTraceOverhead = 0.05

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a single-workload run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs all of them, timed and traced")
	seed := flag.Int64("seed", 1, "input seed: query samples, pseudo-ID shuffle, joiner noise")
	seconds := flag.Int("seconds", runSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "traced pass: write the spans to this file as JSON")
	out := flag.String("out", "", "all-workloads mode: write the results to this file for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; non-zero exit on a regression")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *workload == "":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs one pass of one workload and shapes its outcome into the
// metrics that pass reports.
func measure(ctx context.Context, sh shape, seed int64, window time.Duration, traced bool, traceOut string) (*report, *outcome, error) {
	var o *outcome
	var err error
	switch {
	case sh.serve:
		o, err = sh.runServed(ctx, seed, window)
	case traced:
		o, err = sh.runTraced(ctx, seed, window, traceOut)
	default:
		o, err = sh.runTimed(ctx, seed, window)
	}
	if err != nil {
		return nil, nil, err
	}
	if traced {
		p, err := probes(seed, sh)
		if err != nil {
			return nil, nil, fmt.Errorf("probes: %w", err)
		}
		maps.Copy(o.metrics, p)
	}
	rep := &report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range catalogue(traced) {
		v, ok := o.metrics[d.Name]
		// A layer a workload does not touch reads 0 in its ledger; an
		// end-to-end metric every workload must produce.
		if !ok && !traced && o.failed == 0 {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", sh.name, d.Name)
		}
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return rep, o, nil
}

func runOne(name string, seed int64, window time.Duration, traced bool, traceOut string) error {
	sh, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Printf("workload %s  seed %d  window %s  traced %t  GOMAXPROCS %d  nproc %d  keyBits %d  %s\n",
		sh.name, seed, window, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), sh.keyBits, runtime.Version())
	rep, o, err := measure(context.Background(), sh, seed, window, traced, traceOut)
	if err != nil {
		return err
	}
	for _, d := range catalogue(traced) {
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	if sh.serve && !traced {
		// serve_churn's one loop measures both catalogues (serve.go); print the
		// ledger here too, so the all-workloads mode need not run it twice.
		for _, d := range perLayer {
			if v, ok := o.metrics[d.Name]; ok {
				fmt.Printf("  %-36s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	fmt.Printf("  %-36s %14.6g ratio (%d of %d)\n", "failed_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 || rep.Attempted == 0 {
		return errors.New("operations failed or disagreed with the oracle")
	}
	return nil
}

// resultFile is what the all-workloads mode writes and -compare reads: one
// value per workload and metric. Repeats are the caller's loop over seeds.
type resultFile struct {
	Seed       int64                         `json:"seed"`
	Seconds    int                           `json:"seconds"`
	GoVersion  string                        `json:"go"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	NumCPU     int                           `json:"nproc"`
	Workloads  map[string]map[string]float64 `json:"workloads"`
}

// runAll re-executes this binary once per workload and pass, so every
// measurement starts from a clean heap and no randomizer pool is shared.
func runAll(seed int64, seconds int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultFile{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workloads: map[string]map[string]float64{}}
	var failures []string
	for _, sh := range workloads {
		values := map[string]float64{}
		res.Workloads[sh.name] = values
		passes := []string{"0", "1"}
		if sh.serve {
			passes = passes[:1] // its timed pass prints the ledger too
		}
		for _, trace := range passes {
			var stdout bytes.Buffer
			cmd := exec.Command(self, "--workload", sh.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace)
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				failures = append(failures, fmt.Sprintf("%s --trace %s: %v", sh.name, trace, err))
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s --trace %s: reading result: %w", sh.name, trace, err)
			}
			for name, m := range rep.Metrics {
				values[name] = m.Value
			}
		}
		if over := values["trace.overhead_ratio"]; over > maxTraceOverhead {
			failures = append(failures, fmt.Sprintf("%s: trace.overhead_ratio %.3f exceeds %.2f", sh.name, over, maxTraceOverhead))
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric with both
// files' values and fails when b is worse than a by more than the bound.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare needs two result files")
	}
	var files [2]resultFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	regressed := 0
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "status")
	for _, sh := range workloads {
		for _, d := range endToEnd {
			a, b := files[0].Workloads[sh.name][d.Name], files[1].Workloads[sh.name][d.Name]
			status := verdict(a, b, d)
			if status != "ok" && status != "improved" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-26s %14.6g %14.6g %8.3f %5.1f%%  %s\n", sh.name, d.Name, a, b, b/a, 100*d.Bound, status)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed or missing", regressed)
	}
	return nil
}

// verdict says whether b is within d's bound of a, in d's direction.
func verdict(a, b float64, d metricDef) string {
	if a <= 0 || b <= 0 {
		return "missing"
	}
	worse := b/a - 1
	if d.Better == "higher" {
		worse = a/b - 1
	}
	switch {
	case worse > d.Bound:
		return "regressed"
	case worse < -d.Bound:
		return "improved"
	}
	return "ok"
}
