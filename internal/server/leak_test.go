package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
	"weak"

	"vfps/internal/vfl"
)

// serveJSON drives one request through s.ServeHTTP, with no socket, and
// decodes the response body into out when out is non-nil.
func serveJSON(t *testing.T, s *Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, path, err)
		}
	}
	return rec.Code
}

// TestRetiredConsortiumStopsItsPool creates, selects on and retires several
// Paillier consortiums, by DELETE and by idle-TTL eviction, and expects the
// goroutine count to return to where it started: a consortium's randomizer
// pool stops when the consortium goes, not when the server does.
func TestRetiredConsortiumStopsItsPool(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name string
		ttl  time.Duration
	}{{"delete", 0}, {"idle-ttl", 200 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewWithOptions(Options{IdleTTL: tc.ttl})
			defer s.Close()
			base := runtime.NumGoroutine()
			for range n {
				var created CreateResponse
				if code := serveJSON(t, s, "POST", "/v1/consortiums", CreateRequest{
					Dataset: "Rice", Rows: 40, Parties: 3, Scheme: "paillier", KeyBits: 256,
				}, &created); code != http.StatusCreated {
					t.Fatalf("create returned %d", code)
				}
				path := "/v1/consortiums/" + created.ID
				if code := serveJSON(t, s, "POST", path+"/select", SelectRequest{NumQueries: 2, Seed: 1}, nil); code != http.StatusOK {
					t.Fatalf("select returned %d", code)
				}
				if tc.ttl == 0 {
					if code := serveJSON(t, s, "DELETE", path, nil, nil); code != http.StatusNoContent {
						t.Fatalf("delete returned %d", code)
					}
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for (tc.ttl > 0 && s.evicted.Value() < n) || runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					var stacks bytes.Buffer
					_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
					t.Fatalf("%d evicted; %d goroutines after retiring %d consortiums, %d before:\n%s",
						s.evicted.Value(), runtime.NumGoroutine(), n, base, stacks.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// costSeries counts the vfps_cost_ops series s exports.
func costSeries(s *Server) int {
	for _, f := range s.Observer().Registry().Snapshot() {
		if f.Name == "vfps_cost_ops" {
			return len(f.Series)
		}
	}
	return 0
}

// leaderOf reaches the leader of a consortium the server holds. The public
// API has no use for it; this test does, to prove the leader is collected.
func leaderOf(t *testing.T, s *Server, id string) *vfl.Leader {
	t.Helper()
	e, ok := s.reg.acquire(id)
	if !ok {
		t.Fatalf("consortium %s is not registered", id)
	}
	defer e.release()
	cluster := reflect.ValueOf(e.cons).Elem().FieldByName("cluster")
	return (*vfl.Cluster)(cluster.UnsafePointer()).Leader
}

// TestRetiredConsortiumReleasesItsSeries retires 20 consortiums, by DELETE
// and by idle-TTL eviction, and expects the registry to drop their cost
// series and the heap to drop their leaders: consortium ids are never
// reused, and a cost gauge's pull closure holds its role, so unless teardown
// deletes a consortium's series every retired one stays reachable.
func TestRetiredConsortiumReleasesItsSeries(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		name string
		ttl  time.Duration
	}{{"delete", 0}, {"idle-ttl", 100 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewWithOptions(Options{IdleTTL: tc.ttl})
			defer s.Close()
			base := costSeries(s)
			var leaders []weak.Pointer[vfl.Leader]
			for i := range n {
				var created CreateResponse
				if code := serveJSON(t, s, "POST", "/v1/consortiums", CreateRequest{
					Dataset: "Rice", Rows: 40, Parties: 3, Scheme: "plain",
				}, &created); code != http.StatusCreated {
					t.Fatalf("create returned %d", code)
				}
				path := "/v1/consortiums/" + created.ID
				if code := serveJSON(t, s, "POST", path+"/select", SelectRequest{NumQueries: 2, Seed: 1}, nil); code != http.StatusOK {
					t.Fatalf("select returned %d", code)
				}
				if i == 0 || i == n-1 {
					leaders = append(leaders, weak.Make(leaderOf(t, s, created.ID)))
				}
				if i == 0 && costSeries(s) == base {
					t.Fatal("a live consortium exports no cost series")
				}
				if tc.ttl == 0 {
					if code := serveJSON(t, s, "DELETE", path, nil, nil); code != http.StatusNoContent {
						t.Fatalf("delete returned %d", code)
					}
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for tc.ttl > 0 && s.evicted.Value() < n {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d consortiums evicted", s.evicted.Value(), n)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if got := costSeries(s); got != base {
				t.Fatalf("vfps_cost_ops exports %d series after retiring %d consortiums, %d before", got, n, base)
			}
			for range 3 {
				runtime.GC()
			}
			for i, wp := range leaders {
				if wp.Value() != nil {
					t.Fatalf("retired leader %d of %d is still reachable after a GC", i+1, len(leaders))
				}
			}
		})
	}
}
