package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
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
