package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"vfps/internal/obs"
	"vfps/internal/server"
)

// serveTenants are the closed-loop clients of serve_churn: one per core of
// the reference box, each with its own X-Tenant and its own consortium.
var serveTenants = []string{"a", "b"}

// served is a running HTTP server with one consortium per tenant.
type served struct {
	srv     *server.Server
	ts      *httptest.Server
	ids     []string  // consortium id per tenant
	creates []float64 // client-side create latencies
}

func (s *served) close() {
	s.ts.Close()
	s.srv.Close()
}

// call issues one JSON request as tenant and decodes a 2xx reply into out.
// Any other status — a 429 from admission control included — is an error.
func (s *served) call(ctx context.Context, tenant, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if out == nil || len(raw) == 0 {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// create adds one consortium per tenant under the given scheme.
func (s *served) create(ctx context.Context, sh shape, seed int64, scheme string) ([]string, error) {
	var ids []string
	for _, tenant := range serveTenants {
		var resp server.CreateResponse
		t0 := time.Now()
		err := s.call(ctx, tenant, "POST", "/v1/consortiums", server.CreateRequest{
			Dataset: sh.dataset, Rows: sh.rows, Parties: sh.parties,
			Scheme: scheme, KeyBits: sh.keyBits, ShuffleSeed: seed,
			SplitSeed: splitSeed - 1, // the server splits with SplitSeed+1
		}, &resp)
		if err != nil {
			return nil, err
		}
		s.creates = append(s.creates, time.Since(t0).Seconds())
		ids = append(ids, resp.ID)
	}
	return ids, nil
}

func (sh shape) buildServed(ctx context.Context, seed int64) (*served, error) {
	srv := server.New()
	s := &served{srv: srv, ts: httptest.NewServer(srv)}
	ids, err := s.create(ctx, sh, seed, sh.scheme)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ids = ids
	return s, nil
}

// churnStep is one request of a tenant's script.
type churnStep struct {
	op    string // select | join | leave
	qseed int64  // select: query seed; join: noise seed
	kind  string // select: fresh (first use of its seed) | repeat | joined
}

// churnRound is the unit a tenant repeats: a fresh query set, the same set
// again, a join, the same set against the larger roster, the joiner leaving,
// and a new query set.
func churnRound(seed int64, tenant, round int) []churnStep {
	s1 := querySeed(seed, 1+(2*round)*len(serveTenants)+tenant)
	s2 := querySeed(seed, 1+(2*round+1)*len(serveTenants)+tenant)
	return []churnStep{
		{"select", s1, "fresh"},
		{"select", s1, "repeat"},
		{"join", s1, ""},
		{"select", s1, "joined"},
		{"leave", 0, ""},
		{"select", s2, "fresh"},
	}
}

// churnLog is what one tenant observed.
type churnLog struct {
	steps    []churnStep
	picks    [][]int              // Selected of every select, in order
	latency  map[string][]float64 // client-side seconds by op (select by kind too)
	overhead []float64            // select latency minus the server's own wallMillis
	cands    float64              // candidate instances over all selects
	joiner   string               // index of the party the last join added
	err      error
}

func newChurnLog() *churnLog { return &churnLog{latency: map[string][]float64{}} }

// step issues one request of a script against consortium id as tenant. The
// joiner is always a noisy clone of party 0; its index comes back in the
// join reply and is what the next leave removes.
func (s *served) step(ctx context.Context, sh shape, tenant, id, method string, st churnStep, log *churnLog) {
	base := "/v1/consortiums/" + id
	t0 := time.Now()
	switch st.op {
	case "select":
		var resp server.SelectResponse
		log.err = s.call(ctx, tenant, "POST", base+"/select", server.SelectRequest{
			Method: method, Count: sh.pick, K: knnK, NumQueries: sh.queries, Seed: st.qseed,
		}, &resp)
		d := time.Since(t0).Seconds()
		log.picks = append(log.picks, resp.Selected)
		log.latency["select."+st.kind] = append(log.latency["select."+st.kind], d)
		log.overhead = append(log.overhead, d-float64(resp.WallMillis)/1e3)
		log.cands += resp.AvgCandidates * float64(sh.queries)
	case "join":
		var resp server.JoinResponse
		log.err = s.call(ctx, tenant, "POST", base+"/participants", server.JoinRequest{CloneOf: 0, Noise: 0.1, Seed: st.qseed}, &resp)
		log.joiner = strings.TrimPrefix(resp.Name, "party/")
	case "leave":
		log.err = s.call(ctx, tenant, "DELETE", base+"/participants/"+log.joiner, nil, nil)
	}
	log.latency[st.op] = append(log.latency[st.op], time.Since(t0).Seconds())
	log.steps = append(log.steps, st)
}

// familyTotal sums every series of one metric family in a registry snapshot;
// with match non-nil only series whose labels it accepts.
func familyTotal(snap []obs.FamilySnapshot, name string, match func(labels map[string]string) bool) float64 {
	total := 0.0
	for _, f := range snap {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if match == nil || match(s.Labels) {
				total += s.Value
			}
		}
	}
	return total
}

// labelIs matches the series whose label key has the given value.
func labelIs(key, value string) func(map[string]string) bool {
	return func(l map[string]string) bool { return l[key] == value }
}

// runServed is serve_churn. The server builds its consortiums itself, so no
// role handler can be wrapped from outside: both passes run the same closed
// loop, the timed pass reports the end-to-end metrics and the traced pass the
// client-side per-endpoint ledger and the registry's HE counters.
func (sh shape) runServed(ctx context.Context, seed int64, window time.Duration) (*outcome, error) {
	sys, setups, err := timedSetup(
		func() (*served, error) { return sh.buildServed(ctx, seed) },
		func(s *served) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	for t, tenant := range serveTenants {
		log := newChurnLog()
		if sys.step(ctx, sh, tenant, sys.ids[t], "", churnStep{"select", querySeed(seed, 0), "warm"}, log); log.err != nil {
			return nil, fmt.Errorf("warm-up selection: %w", log.err)
		}
	}

	reg := sys.srv.Observer().Registry()
	logs := make([]*churnLog, len(serveTenants))
	snap0 := reg.Snapshot()
	cpu0, start := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for t, tenant := range serveTenants {
		logs[t] = newChurnLog()
		wg.Add(1)
		// A tenant runs whole rounds until the window closes, so every run has
		// the same mix of selects with and without the joiner and the per-
		// candidate counts repeat across seeds.
		go func() {
			defer wg.Done()
			for round := 0; round == 0 || time.Since(start) < window; round++ {
				for _, st := range churnRound(seed, t, round) {
					if logs[t].err != nil {
						return
					}
					sys.step(ctx, sh, tenant, sys.ids[t], "", st, logs[t])
				}
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	snap1 := reg.Snapshot()
	delta := func(name string, match func(map[string]string) bool) float64 {
		return familyTotal(snap1, name, match) - familyTotal(snap0, name, match)
	}

	out := &outcome{metrics: map[string]float64{"setup_s": median(setups), "peak_rss_mb": peakRSSMB()}}
	lat := map[string][]float64{}
	var overhead []float64
	var cands float64
	for _, log := range logs {
		out.attempted += len(log.steps)
		if log.err != nil {
			out.fail("%v", log.err)
		}
		for k, v := range log.latency {
			lat[k] = append(lat[k], v...)
		}
		overhead = append(overhead, log.overhead...)
		cands += log.cands
	}
	selects := float64(len(lat["select"]))
	m := out.metrics
	m["select_p50_s"] = median(lat["select"])
	m["queries_per_s"] = selects * float64(sh.queries) / wall
	m["cpu_s_per_selection"] = cpu / selects
	m["candidates_per_query"] = cands / (selects * float64(sh.queries))
	m["wire_bytes_per_candidate"] = delta("vfps_wire_bytes", nil) / cands
	m["he_ops_per_candidate"] = delta("vfps_he_ops_total", nil) / cands

	m["server.select_s"] = median(lat["select"])
	m["server.join_s"] = median(lat["join"])
	m["server.leave_s"] = median(lat["leave"])
	m["server.create_s"] = median(sys.creates)
	m["server.overhead_s"] = median(overhead)
	m["server.repeat_over_fresh"] = median(lat["select.repeat"]) / median(lat["select.fresh"])
	m["vfl.candidates_per_query"] = m["candidates_per_query"]
	m["he.encryptions"] = delta("vfps_he_ops_total", labelIs("op", "encrypt")) / selects
	m["he.decryptions"] = delta("vfps_he_ops_total", labelIs("op", "decrypt")) / selects
	m["he.cipher_adds"] = delta("vfps_he_ops_total", labelIs("op", "add")) / selects
	m["wire.payload_bytes"] = delta("vfps_wire_bytes", labelIs("kind", "payload")) / selects
	m["wire.framing_bytes"] = delta("vfps_wire_bytes", labelIs("kind", "framing")) / selects
	m["par.cpu_utilization"] = cpu / (wall * float64(runtime.GOMAXPROCS(0)))

	// Oracle: replay each tenant's script against a plain-scheme twin on the
	// same server with the BASE variant; every select must pick the same set.
	twins, err := sys.create(ctx, sh, seed, "plain")
	if err != nil {
		return nil, fmt.Errorf("oracle twin: %w", err)
	}
	for t, tenant := range serveTenants {
		want := newChurnLog()
		for _, st := range logs[t].steps {
			if want.err == nil {
				sys.step(ctx, sh, tenant, twins[t], "vfps-sm-base", st, want)
			}
		}
		if want.err != nil {
			out.fail("oracle twin of tenant %s: %v", tenant, want.err)
			continue
		}
		for i, pick := range logs[t].picks {
			if i < len(want.picks) && !slices.Equal(pick, want.picks[i]) {
				out.fail("tenant %s select %d picked %v, oracle %v", tenant, i, pick, want.picks[i])
			}
		}
	}
	return out, nil
}
