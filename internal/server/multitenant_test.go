package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func startServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWithOptions(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doJSONTenant(t *testing.T, method, url, tenant string, body any, out any) (int, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, resp.Header
}

// TestConcurrentMultiConsortium is the multiplexing property test: several
// consortiums run selections at once (run with -race in make check) and each
// produces the same selection it produces when run alone.
func TestConcurrentMultiConsortium(t *testing.T) {
	_, ts := startServerOpts(t, Options{})
	const consortiums = 3
	ids := make([]string, consortiums)
	for i := range ids {
		var created CreateResponse
		code := doJSON(t, "POST", ts.URL+"/v1/consortiums",
			CreateRequest{Dataset: "Rice", Rows: 120, Parties: 3, SplitSeed: int64(i)}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create %d returned %d", i, code)
		}
		ids[i] = created.ID
	}
	// Reference: sequential runs.
	want := make([][]int, consortiums)
	for i, id := range ids {
		var out SelectResponse
		code := doJSON(t, "POST", ts.URL+"/v1/consortiums/"+id+"/select",
			SelectRequest{NumQueries: 4, Seed: 1}, &out)
		if code != http.StatusOK {
			t.Fatalf("reference select on %s returned %d", id, code)
		}
		want[i] = out.Selected
	}
	// Concurrent runs on all consortiums at once, several rounds each.
	var wg sync.WaitGroup
	errc := make(chan error, consortiums*2)
	for i, id := range ids {
		for round := 0; round < 2; round++ {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				var out SelectResponse
				code := doJSON(t, "POST", ts.URL+"/v1/consortiums/"+id+"/select",
					SelectRequest{NumQueries: 4, Seed: 1}, &out)
				if code != http.StatusOK {
					errc <- errors.New("concurrent select failed on " + id)
					return
				}
				if len(out.Selected) != len(want[i]) {
					errc <- errors.New("selection size changed under concurrency on " + id)
					return
				}
				for j := range out.Selected {
					if out.Selected[j] != want[i][j] {
						errc <- errors.New("selection changed under concurrency on " + id)
						return
					}
				}
			}(i, id)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestAdmissionTenantBudget exhausts one tenant's HE-operation budget and
// checks the 429, while another tenant keeps being served.
func TestAdmissionTenantBudget(t *testing.T) {
	_, ts := startServerOpts(t, Options{Admission: AdmissionConfig{TenantHEBudget: 1}})
	id := createTestConsortium(t, ts)
	// First selection is admitted (budget not yet spent) and overspends it.
	var out SelectResponse
	if code, _ := doJSONTenant(t, "POST", ts.URL+"/v1/consortiums/"+id+"/select", "acme",
		SelectRequest{NumQueries: 3, Seed: 1}, &out); code != http.StatusOK {
		t.Fatalf("first select returned %d", code)
	}
	var e errorBody
	code, _ := doJSONTenant(t, "POST", ts.URL+"/v1/consortiums/"+id+"/select", "acme",
		SelectRequest{NumQueries: 3, Seed: 1}, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget select returned %d (%v)", code, e)
	}
	// A different tenant is unaffected.
	if code, _ := doJSONTenant(t, "POST", ts.URL+"/v1/consortiums/"+id+"/select", "globex",
		SelectRequest{NumQueries: 3, Seed: 1}, &out); code != http.StatusOK {
		t.Fatalf("other tenant select returned %d", code)
	}
}

// TestAdmissionQuotas unit-tests the quota ladder: tenant concurrency, the
// bounded queue with Retry-After, and context cancellation while queued.
func TestAdmissionQuotas(t *testing.T) {
	s := NewWithOptions(Options{Admission: AdmissionConfig{
		MaxConcurrent: 1, QueueDepth: 1, TenantConcurrent: 2,
	}})
	defer s.Close()
	a := s.adm
	ctx := context.Background()

	l1, err := a.acquire(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	// Queue the one allowed waiter.
	waited := make(chan *lease)
	go func() {
		l, err := a.acquire(ctx, "t1")
		if err != nil {
			t.Error(err)
		}
		waited <- l
	}()
	// Wait until it is actually queued before probing rejections.
	for i := 0; a.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if a.queued.Load() != 1 {
		t.Fatal("second acquire did not queue")
	}
	// Tenant t1 now has 2 in flight (1 running, 1 queued): over quota.
	var ae *admitError
	if _, err := a.acquire(ctx, "t1"); !errors.As(err, &ae) || ae.reason != "tenant-concurrency" {
		t.Fatalf("tenant-concurrency rejection missing: %v", err)
	}
	if ae.retryAfter <= 0 {
		t.Fatal("tenant-concurrency rejection lacks Retry-After")
	}
	// Another tenant passes the tenant check but finds the queue full.
	if _, err := a.acquire(ctx, "t2"); !errors.As(err, &ae) || ae.reason != "queue-full" {
		t.Fatalf("queue-full rejection missing: %v", err)
	}
	if ae.retryAfter <= 0 {
		t.Fatal("queue-full rejection lacks Retry-After")
	}
	// A canceled context unblocks a queued waiter. t2 has 0 in flight now.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	// The queue slot is still held by the t1 waiter, so this one is rejected
	// as queue-full; release the runner first so the waiter drains.
	l1.Release(0)
	l2 := <-waited
	if _, err := a.acquire(cctx, "t2"); err == nil {
		// l2 still holds the only slot, so a canceled ctx must surface.
		t.Fatal("canceled queued acquire succeeded")
	}
	l2.Release(5)
	if a.tenants["t1"].heSpent != 5 {
		t.Fatalf("heSpent = %d, want 5", a.tenants["t1"].heSpent)
	}
	if got := a.tenants["t1"].inflight; got != 0 {
		t.Fatalf("inflight = %d after releases", got)
	}
}

// TestAdmissionDrain checks graceful shutdown semantics: queued work still
// completes, new work is refused, and Drain returns once everything lands.
func TestAdmissionDrain(t *testing.T) {
	s := NewWithOptions(Options{Admission: AdmissionConfig{MaxConcurrent: 1, QueueDepth: 2}})
	defer s.Close()
	a := s.adm
	ctx := context.Background()
	l1, err := a.acquire(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	queuedLease := make(chan *lease)
	go func() {
		l, err := a.acquire(ctx, "t")
		if err != nil {
			t.Error(err)
		}
		queuedLease <- l
	}()
	for i := 0; a.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	a.BeginDrain()
	// New work is refused outright.
	var ae *admitError
	if _, err := a.acquire(ctx, "t"); !errors.As(err, &ae) || ae.reason != "draining" {
		t.Fatalf("draining rejection missing: %v", err)
	}
	// The queued request is accepted work: it must still get its slot.
	l1.Release(0)
	l2 := <-queuedLease
	// Drain must block until l2 releases.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := a.Drain(short); err == nil {
		t.Fatal("drain returned while a selection was in flight")
	}
	l2.Release(0)
	full, cancel2 := context.WithTimeout(ctx, 2*time.Second)
	defer cancel2()
	if err := a.Drain(full); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteConsortium covers the DELETE endpoint: 204, then 404 on every
// subsequent touch.
func TestDeleteConsortium(t *testing.T) {
	_, ts := startServerOpts(t, Options{})
	id := createTestConsortium(t, ts)
	if code, _ := doJSONTenant(t, "DELETE", ts.URL+"/v1/consortiums/"+id, "", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete returned %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/consortiums/"+id, nil, &map[string]any{}); code != http.StatusNotFound {
		t.Fatalf("get after delete returned %d", code)
	}
	if code, _ := doJSONTenant(t, "DELETE", ts.URL+"/v1/consortiums/"+id, "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete returned %d", code)
	}
}

// TestIdleTTLEviction creates a consortium, lets it idle past the TTL, and
// expects the janitor to evict it.
func TestIdleTTLEviction(t *testing.T) {
	s, ts := startServerOpts(t, Options{IdleTTL: 50 * time.Millisecond})
	id := createTestConsortium(t, ts)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := doJSON(t, "GET", ts.URL+"/v1/consortiums/"+id, nil, &map[string]any{})
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("consortium not evicted after idle TTL")
		}
		// Polling refreshes lastUsed via release; back off past the TTL.
		time.Sleep(120 * time.Millisecond)
	}
	if s.evicted.Value() == 0 {
		t.Fatal("eviction counter not incremented")
	}
}

// TestSelectRejectsRetiredOptimizer pins that the retired "optimizer" key is
// an unknown field of a select body: every selection runs greedy, so the key
// answers 400 rather than being silently ignored, while the same body without
// it selects.
func TestSelectRejectsRetiredOptimizer(t *testing.T) {
	_, ts := startServerOpts(t, Options{})
	id := createTestConsortium(t, ts)
	url := ts.URL + "/v1/consortiums/" + id + "/select"
	for body, want := range map[string]int{
		`{"numQueries":3,"seed":1}`:                      http.StatusOK,
		`{"numQueries":3,"seed":1,"optimizer":"lazy"}`:   http.StatusBadRequest,
		`{"numQueries":3,"seed":1,"optimizer":"greedy"}`: http.StatusBadRequest,
	} {
		resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("select %s answered %d, want %d", body, resp.StatusCode, want)
		}
	}
}
