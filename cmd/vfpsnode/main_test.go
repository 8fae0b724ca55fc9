package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vfps"
)

// The harness boots every role of the deployment from run in this test
// process — key server, parties, aggregation server, then the leader — each
// behind its own loopback TCP listener, exactly the sockets and messages
// separate processes would exchange. Each scenario states what it expects
// before it runs.

// deployment is one topology's shape. Every role gets the same flags.
type deployment struct {
	scheme, dataset, variant string
	rows                     int
	leaderArgs               []string // extra leader flags
}

const (
	testParties = 3
	testSelect  = 2
	testK       = 5
	testQueries = 8
	testKeyBits = 256
)

func (d deployment) common() []string {
	return []string{"-scheme", d.scheme, "-keybits", fmt.Sprint(testKeyBits), "-dataset", d.dataset,
		"-rows", fmt.Sprint(d.rows), "-parties", fmt.Sprint(testParties)}
}

// roleOutput collects one role's stdout and hands the address of its
// "... listening on ADDR" banner to addr.
type roleOutput struct {
	mu   sync.Mutex
	buf  strings.Builder
	addr chan string
}

func (w *roleOutput) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, line := range strings.Split(string(p), "\n") {
		if _, a, ok := strings.Cut(line, "listening on "); ok {
			select {
			case w.addr <- strings.TrimSpace(a):
			default:
			}
		}
	}
	return len(p), nil
}

func (w *roleOutput) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// deploy boots the serving roles of d, runs the leader to completion and
// returns the leader's output. The serving roles are cancelled and joined
// before deploy returns; any of them returning an error fails the test.
func deploy(t *testing.T, d deployment) (string, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var roleErrs []error
	defer func() {
		cancel()
		wg.Wait()
		for _, err := range roleErrs {
			t.Errorf("serving role: %v", err)
		}
	}()
	start := func(args ...string) string {
		t.Helper()
		out := &roleOutput{addr: make(chan string, 1)}
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := run(ctx, append(args, d.common()...), out)
			if err != nil {
				mu.Lock()
				roleErrs = append(roleErrs, fmt.Errorf("%v: %w", args, err))
				mu.Unlock()
			}
			done <- err
		}()
		select {
		case addr := <-out.addr:
			return addr
		case err := <-done:
			t.Fatalf("role %v exited before listening: %v\n%s", args, err, out)
		case <-time.After(30 * time.Second):
			t.Fatalf("timeout waiting for role %v", args)
		}
		return ""
	}

	dir := "keyserver=" + start("-role", "keyserver")
	for i := 0; i < testParties; i++ {
		dir += fmt.Sprintf(",party/%d=%s", i, start("-role", "party", "-index", fmt.Sprint(i), "-directory", dir))
	}
	dir += ",aggserver=" + start("-role", "aggserver", "-directory", dir)

	out := &roleOutput{}
	args := append([]string{"-role", "leader", "-select", fmt.Sprint(testSelect), "-k", fmt.Sprint(testK),
		"-queries", fmt.Sprint(testQueries), "-variant", d.variant, "-directory", dir}, d.leaderArgs...)
	err := run(ctx, append(args, d.common()...), out)
	return out.String(), err
}

// librarySelection is what vfps.Consortium.Select returns for d in one
// process with the same data, seeds, K and query count.
func librarySelection(t *testing.T, d deployment) *vfps.Selection {
	t.Helper()
	ctx := context.Background()
	data, err := vfps.GenerateDataset(d.dataset, d.rows)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := vfps.VerticalSplit(data, testParties, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := vfps.NewConsortium(ctx, vfps.Config{
		Partition: pt, Labels: data.Y, Classes: data.Classes, Scheme: d.scheme,
		KeyBits: testKeyBits, ShuffleSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	sel, err := cons.Select(ctx, testSelect, vfps.SelectOptions{
		K: testK, NumQueries: testQueries, Base: d.variant == "base",
	})
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

var selectedLine = regexp.MustCompile(`selected participants: \[([0-9 ]*)\] \(objective (\S+)\)`)

// leaderSelection parses the leader's selected set and objective.
func leaderSelection(t *testing.T, out string) ([]int, float64) {
	t.Helper()
	m := selectedLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("leader output has no selection:\n%s", out)
	}
	var sel []int
	for _, f := range strings.Fields(m[1]) {
		i, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		sel = append(sel, i)
	}
	v, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		t.Fatalf("objective %q: %v", m[2], err)
	}
	return sel, v
}

// checkNoLeak fails t, printing every stack, unless the goroutine count
// returns to baseline.
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines left behind (baseline %d):\n%s", n-baseline, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// logEvent is the part of a query-log line the scenarios check.
type logEvent struct {
	Event struct {
		Kind   string            `json:"kind"`
		ID     string            `json:"id"`
		Trace  string            `json:"trace"`
		Phases []json.RawMessage `json:"phases"`
	} `json:"event"`
}

// checkQueryLog asserts the invariants the soak checks of the leader's query
// log: one traced selection event per round, and rounds × queries query
// events, each with an id, a trace and a phase breakdown.
func checkQueryLog(t *testing.T, path string, rounds int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	selections, queries := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev logEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("query log line %q: %v", sc.Text(), err)
		}
		switch ev.Event.Kind {
		case "selection":
			selections++
			if ev.Event.Trace == "" {
				t.Errorf("selection event without a trace: %s", sc.Text())
			}
		case "query":
			queries++
			if ev.Event.ID == "" || ev.Event.Trace == "" || len(ev.Event.Phases) == 0 {
				t.Errorf("query event missing id/trace/phases: %s", sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if selections != rounds || queries != rounds*testQueries {
		t.Errorf("query log has %d selection and %d query events, want %d and %d",
			selections, queries, rounds, rounds*testQueries)
	}
}

// TestDeploymentSelectsLikeTheLibrary runs the deployment scenario by
// scenario. In every one the leader must return the library's selection: the
// same set and the same objective bits as vfps.Consortium.Select.
func TestDeploymentSelectsLikeTheLibrary(t *testing.T) {
	rice := func(scheme, variant string) deployment {
		return deployment{scheme: scheme, dataset: "Rice", variant: variant, rows: 120}
	}
	logPath := filepath.Join(t.TempDir(), "leader.jsonl")
	type scenario struct {
		expect string
		name   string
		d      deployment
		check  func(t *testing.T, out string)
	}
	var scenarios []scenario
	for _, scheme := range []string{"plain", "paillier"} {
		for _, variant := range []string{"fagin", "base"} {
			scenarios = append(scenarios, scenario{
				expect: "testOK: the library's set and objective bits",
				name:   fmt.Sprintf("identity/%s/%s/shards=0", scheme, variant),
				d:      rice(scheme, variant),
			})
		}
	}
	scenarios = append(scenarios,
		scenario{
			expect: "testOK: the library's set and objective bits under secure aggregation",
			name:   "identity/secagg/fagin/shards=0",
			d:      rice("secagg", "fagin"),
		},
		scenario{
			expect: "testOK: -rows past the dataset's 10 000 instances samples queries over the rows the parties hold",
			name:   "rows-beyond-instances",
			d:      deployment{scheme: "plain", dataset: "Bank", variant: "fagin", rows: 20000},
		},
		scenario{
			expect: "testOK: -rows 0 means all of the dataset's rows, for the parties and the leader alike",
			name:   "rows-0-is-all",
			d:      deployment{scheme: "plain", dataset: "Bank", variant: "fagin", rows: 0},
		},
		scenario{
			expect: "testOK: two traced selections and 2 × queries logged queries with id, trace and phases; the debug listener closes with the leader",
			name:   "query-log",
			d: deployment{scheme: "plain", dataset: "Rice", variant: "fagin", rows: 120,
				leaderArgs: []string{"-log-json", logPath, "-rounds", "2", "-obs-addr", "127.0.0.1:0"}},
			check: func(t *testing.T, out string) {
				if n := strings.Count(out, "queries in "); n != 2 {
					t.Errorf("%d round lines, want 2:\n%s", n, out)
				}
				checkQueryLog(t, logPath, 2)
			},
		},
	)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Log(sc.expect)
			baseline := runtime.NumGoroutine()
			want := librarySelection(t, sc.d)
			out, err := deploy(t, sc.d)
			if err != nil {
				t.Fatalf("leader: %v\n%s", err, out)
			}
			got, value := leaderSelection(t, out)
			if fmt.Sprint(got) != fmt.Sprint(want.Selected) || math.Float64bits(value) != math.Float64bits(want.Value) {
				t.Errorf("leader selected %v (objective %v), library %v (objective %v)\n%s",
					got, value, want.Selected, want.Value, out)
			}
			if sc.check != nil {
				sc.check(t, out)
			}
			checkNoLeak(t, baseline)
		})
	}
}

// TestDeploymentRejects runs the misconfigurations a role must refuse with an
// error instead of starting: each scenario names the error it expects.
func TestDeploymentRejects(t *testing.T) {
	ctx := context.Background()
	// A live key server, so roles that fetch a key get past that step.
	kctx, cancel := context.WithCancel(ctx)
	out := &roleOutput{addr: make(chan string, 1)}
	done := make(chan error, 1)
	go func() { done <- run(kctx, []string{"-role", "keyserver", "-scheme", "plain"}, out) }()
	var ks string
	select {
	case addr := <-out.addr:
		ks = "keyserver=" + addr
	case err := <-done:
		t.Fatalf("key server exited before listening: %v", err)
	}
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("key server: %v", err)
		}
	}()
	for _, sc := range []struct {
		expect string
		args   []string
	}{
		{"unknown role", []string{"-role", "collector"}},
		{"bad directory entry", []string{"-role", "leader", "-directory", "keyserver"}},
		{"unknown spec", []string{"-role", "party", "-dataset", "Nope"}},
		{"party index 5 out of range", []string{"-role", "party", "-index", "5", "-parties", "3", "-rows", "60", "-directory", ks}},
		{"fetching public key", []string{"-role", "party", "-rows", "60", "-directory", "keyserver=127.0.0.1:1"}},
		{"directory lists no party/<i> entries", []string{"-role", "aggserver", "-directory", ks}},
		{"directory lists 3 party entries but no party/2", []string{"-role", "aggserver", "-directory", ks + ",party/0=x,party/1=y,party/3=z"}},
		{"directory lists 3 party/<i> entries but -parties is 4", []string{"-role", "aggserver", "-parties", "4", "-directory", ks + ",party/0=x,party/1=y,party/2=z"}},
		{"directory lists 4 party/<i> entries but -parties is 3", []string{"-role", "leader", "-parties", "3", "-rows", "60", "-directory", ks + ",party/0=w,party/1=x,party/2=y,party/3=z"}},
		{`dataset: unknown spec "Nope"`, []string{"-role", "leader", "-dataset", "Nope", "-directory", ks}},
		{"fetching private key", []string{"-role", "leader", "-directory", "keyserver=127.0.0.1:1"}},
		{"opening query log", []string{"-role", "keyserver", "-log-json", filepath.Join(t.TempDir(), "missing", "log.jsonl")}},
	} {
		t.Run(sc.expect, func(t *testing.T) {
			// A role that wrongly starts serves until its context ends; the
			// deadline turns that into a nil error instead of a hang.
			ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			err := run(ctx, sc.args, &roleOutput{})
			if err == nil || !strings.Contains(err.Error(), sc.expect) {
				t.Fatalf("run(%v) = %v, want an error containing %q", sc.args, err, sc.expect)
			}
		})
	}
}

// TestRetiredFlagsRejected pins that a retired knob is gone, not ignored: a
// launch script still passing one (the packed-layout switches, chunk framing,
// speculative TA, the arithmetic backend, sharded aggregation) fails loudly
// instead of starting a node that silently differs from what the script
// asked for.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-pack", "-pack-adaptive", "-chunk-bytes", "-speculate-ta", "-mont", "-shard-workers"} {
		err := run(context.Background(), []string{"-role", "keyserver", "-scheme", "plain", flag}, &roleOutput{})
		if want := "flag provided but not defined: " + flag; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: run returned %v, want %q", flag, err, want)
		}
	}
}

func TestParseDirectory(t *testing.T) {
	dir, err := parseDirectory("a=1.2.3.4:5, b=6.7.8.9:10")
	if err != nil {
		t.Fatal(err)
	}
	if dir["a"] != "1.2.3.4:5" || dir["b"] != "6.7.8.9:10" {
		t.Fatalf("parsed %v", dir)
	}
	if _, err := parseDirectory("missing-equals"); err == nil {
		t.Fatal("expected parse error")
	}
	empty, err := parseDirectory("")
	if err != nil || len(empty) != 0 {
		t.Fatal("empty directory should parse")
	}
}
