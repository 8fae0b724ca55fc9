package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"vfps"
)

func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := startServerOpts(t, Options{})
	return ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func createTestConsortium(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var created CreateResponse
	code := doJSON(t, "POST", ts.URL+"/v1/consortiums",
		CreateRequest{Dataset: "Rice", Rows: 200, Parties: 3}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	if created.ID == "" || created.Parties != 3 || created.Rows != 200 {
		t.Fatalf("create response %+v", created)
	}
	return created.ID
}

func TestHealthz(t *testing.T) {
	ts := startServer(t)
	var out map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz %d %v", code, out)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := startServer(t)
	var out struct {
		Datasets []string `json:"datasets"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &out); code != 200 {
		t.Fatalf("datasets %d", code)
	}
	if len(out.Datasets) != 10 {
		t.Fatalf("datasets %v", out.Datasets)
	}
}

func TestCreateSelectEvaluateFlow(t *testing.T) {
	ts := startServer(t)
	id := createTestConsortium(t, ts)

	var info map[string]any
	if code := doJSON(t, "GET", ts.URL+"/v1/consortiums/"+id, nil, &info); code != 200 {
		t.Fatalf("get %d", code)
	}
	if info["parties"].(float64) != 3 {
		t.Fatalf("info %v", info)
	}

	var sel SelectResponse
	code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/select", ts.URL, id),
		SelectRequest{Count: 2, K: 5, NumQueries: 8, Seed: 1}, &sel)
	if code != 200 {
		t.Fatalf("select %d", code)
	}
	if len(sel.Selected) != 2 || sel.ProjectedSeconds <= 0 {
		t.Fatalf("selection %+v", sel)
	}

	var ev EvaluateResponse
	code = doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/evaluate", ts.URL, id),
		EvaluateRequest{Model: "knn", Parties: sel.Selected, K: 5}, &ev)
	if code != 200 {
		t.Fatalf("evaluate %d", code)
	}
	if ev.Accuracy < 0.5 || ev.AUC <= 0.5 {
		t.Fatalf("evaluation %+v", ev)
	}
}

func TestSelectBaselineMethods(t *testing.T) {
	ts := startServer(t)
	id := createTestConsortium(t, ts)
	for _, method := range []string{"shapley", "vfmine", "random", "vfps-sm-base"} {
		var sel SelectResponse
		code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/select", ts.URL, id),
			SelectRequest{Method: method, Count: 2, K: 5, NumQueries: 6, Seed: 1}, &sel)
		if code != 200 {
			t.Fatalf("%s: %d", method, code)
		}
		if len(sel.Selected) != 2 {
			t.Fatalf("%s: %+v", method, sel)
		}
	}
}

// TestSelectRejectsConflictingTopK pins that vfps-sm-base with another top-k
// protocol is a 400 naming both, not a run of that protocol reported as
// vfps-sm-base; "topk":"base" stays valid under either method.
func TestSelectRejectsConflictingTopK(t *testing.T) {
	ts := startServer(t)
	id := createTestConsortium(t, ts)
	for _, c := range []struct {
		method, topk string
		want         int
	}{
		{"vfps-sm-base", "fagin", http.StatusBadRequest},
		{"vfps-sm-base", "threshold", http.StatusBadRequest},
		{"vfps-sm-base", "base", http.StatusOK},
		{"", "base", http.StatusOK},
	} {
		var out map[string]any
		code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/select", ts.URL, id),
			SelectRequest{Method: c.method, Count: 2, K: 5, NumQueries: 6, Seed: 1, TopK: c.topk}, &out)
		if code != c.want {
			t.Fatalf("method %q topk %q: status %d (%v), want %d", c.method, c.topk, code, out, c.want)
		}
		if msg, _ := out["error"].(string); code != http.StatusOK && !strings.Contains(msg, c.topk) {
			t.Fatalf("method %q topk %q: error %q does not name the conflict", c.method, c.topk, msg)
		}
	}
}

func TestMembershipChurnEndpoints(t *testing.T) {
	ts := startServer(t)
	var created CreateResponse
	code := doJSON(t, "POST", ts.URL+"/v1/consortiums",
		CreateRequest{Dataset: "Rice", Rows: 200, Parties: 3}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := created.ID
	selectURL := fmt.Sprintf("%s/v1/consortiums/%s/select", ts.URL, id)
	partsURL := fmt.Sprintf("%s/v1/consortiums/%s/participants", ts.URL, id)
	req := SelectRequest{Count: 2, K: 5, NumQueries: 8, Seed: 1}

	var before SelectResponse
	if code := doJSON(t, "POST", selectURL, req, &before); code != 200 {
		t.Fatalf("select %d", code)
	}

	var joined JoinResponse
	if code := doJSON(t, "POST", partsURL, JoinRequest{CloneOf: 0, Noise: 0.05, Seed: 9}, &joined); code != http.StatusCreated {
		t.Fatalf("join %d", code)
	}
	if joined.Name != "party/3" || joined.Parties != 4 {
		t.Fatalf("join response %+v", joined)
	}
	var info map[string]any
	if code := doJSON(t, "GET", ts.URL+"/v1/consortiums/"+id, nil, &info); code != 200 {
		t.Fatalf("get %d", code)
	}
	if info["parties"].(float64) != 4 || len(info["partyNames"].([]any)) != 4 {
		t.Fatalf("post-join info %v", info)
	}
	var after SelectResponse
	if code := doJSON(t, "POST", selectURL, req, &after); code != 200 {
		t.Fatalf("post-join select %d", code)
	}
	if len(after.Selected) != 2 {
		t.Fatalf("post-join selection %+v", after)
	}

	var left map[string]any
	if code := doJSON(t, "DELETE", partsURL+"/3", nil, &left); code != 200 || left["parties"].(float64) != 3 {
		t.Fatalf("leave %d %v", code, left)
	}
	// Back at the original roster: the selection must reproduce the original
	// answer (from the always-on similarity cache, without re-running the
	// similarity phase).
	var again SelectResponse
	if code := doJSON(t, "POST", selectURL, req, &again); code != 200 {
		t.Fatalf("post-leave select %d", code)
	}
	if fmt.Sprint(again.Selected) != fmt.Sprint(before.Selected) {
		t.Fatalf("post-leave selection %v, original %v", again.Selected, before.Selected)
	}

	// Error paths: unknown index, out-of-range clone source.
	if code := doJSON(t, "DELETE", partsURL+"/9", nil, nil); code != http.StatusNotFound {
		t.Fatalf("leave unknown index: %d", code)
	}
	if code := doJSON(t, "POST", partsURL, JoinRequest{CloneOf: 7}, nil); code != http.StatusBadRequest {
		t.Fatalf("join bad clone source: %d", code)
	}
}

func TestRewardsEndpoint(t *testing.T) {
	ts := startServer(t)
	id := createTestConsortium(t, ts)
	var out RewardsResponse
	code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/rewards", ts.URL, id),
		RewardsRequest{K: 5, NumQueries: 8, Seed: 1}, &out)
	if code != 200 {
		t.Fatalf("rewards %d", code)
	}
	if len(out.Shares) != 3 {
		t.Fatalf("shares %v", out.Shares)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := startServer(t)
	var e errorBody
	// Unknown dataset.
	if code := doJSON(t, "POST", ts.URL+"/v1/consortiums",
		CreateRequest{Dataset: "Nope"}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown dataset: %d", code)
	}
	// Retired protection schemes.
	for _, scheme := range []string{"secagg", "dp"} {
		if code := doJSON(t, "POST", ts.URL+"/v1/consortiums",
			CreateRequest{Dataset: "Rice", Rows: 40, Parties: 2, Scheme: scheme}, &e); code != http.StatusBadRequest {
			t.Fatalf("scheme %q: %d", scheme, code)
		}
	}
	// Unknown consortium id.
	if code := doJSON(t, "GET", ts.URL+"/v1/consortiums/c999", nil, &e); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
	// Malformed body.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/consortiums", bytes.NewBufferString("{nonsense"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}
	// Unknown field rejected (typo safety) — including the retired "wire",
	// "pack", "packAdaptive", "chunkBytes", "speculateTA" and "shardWorkers"
	// knobs on an otherwise valid create, which must not be silently ignored.
	for _, body := range []string{
		`{"datasett":"Rice"}`,
		`{"dataset":"Rice","rows":200,"parties":3,"wire":"binary"}`,
		`{"dataset":"Rice","rows":200,"parties":3,"scheme":"paillier","pack":true}`,
		`{"dataset":"Rice","rows":200,"parties":3,"scheme":"paillier","packAdaptive":true}`,
		`{"dataset":"Rice","rows":200,"parties":3,"scheme":"paillier","chunkBytes":4096}`,
		`{"dataset":"Rice","rows":200,"parties":3,"scheme":"paillier","speculateTA":true}`,
		`{"dataset":"Rice","rows":200,"parties":3,"shardWorkers":2}`,
	} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/consortiums", bytes.NewBufferString(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field in %s: %d", body, resp.StatusCode)
		}
	}
	// Bad selection method.
	id := createTestConsortium(t, ts)
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/select", ts.URL, id),
		SelectRequest{Method: "voodoo", Count: 2}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad method: %d", code)
	}
	// Bad downstream model.
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/evaluate", ts.URL, id),
		EvaluateRequest{Model: "svm"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad model: %d", code)
	}
}

// TestCreateRejectsOversizedKey pins that a keyBits above maxKeyBits is a
// prompt 400, answered before key generation starts: the prime search for a
// 2^20-bit modulus would otherwise run with nothing to stop it.
func TestCreateRejectsOversizedKey(t *testing.T) {
	s := New()
	defer s.Close()
	for _, bits := range []int{maxKeyBits + 1, 1 << 20} {
		body := fmt.Sprintf(`{"dataset":"Rice","rows":40,"parties":2,"scheme":"paillier","keyBits":%d}`, bits)
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/consortiums", strings.NewReader(body)))
			done <- rec
		}()
		select {
		case rec := <-done:
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "keyBits") {
				t.Fatalf("keyBits %d: %d %s, want 400 naming keyBits", bits, rec.Code, rec.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("keyBits %d: no answer within 5s; key generation started", bits)
		}
	}
}

// TestCreateRequestJSONUnchanged pins the create body's performance surface
// to the one key the embedded vfps.Options expose: "parallelism" decodes into
// the options; the setting the server owns ("encryptWindow"), the retired
// pack hint ("packHint", "packWidthHint"), the pool, the retired cache
// switches ("deltaCache", "simCache": both caches are always on), the
// retired sharded reduce ("shardWorkers") and the retired dp parameter
// ("dpEpsilon") stay unknown fields, which the create endpoint answers with a
// 400; and an encoded request carries exactly the expected key set.
func TestCreateRequestJSONUnchanged(t *testing.T) {
	decode := func(body string) (CreateRequest, error) {
		var req CreateRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		return req, dec.Decode(&req)
	}
	req, err := decode(`{"dataset":"Rice","parallelism":3}`)
	if err != nil {
		t.Fatal(err)
	}
	want := vfps.Options{Parallelism: 3}
	if req.Options != want {
		t.Fatalf("decoded options %+v, want %+v", req.Options, want)
	}
	for _, key := range []string{"encryptWindow", "EncryptWindow", "packHint", "PackHint", "packWidthHint", "pool", "Pool",
		"deltaCache", "DeltaCache", "simCache", "SimCache", "shardWorkers", "ShardWorkers", "dpEpsilon"} {
		if _, err := decode(`{"dataset":"Rice","` + key + `":1}`); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%q: want an unknown-field error, got %v", key, err)
		}
	}
	s := New()
	defer s.Close()
	for key, v := range map[string]any{"deltaCache": true, "simCache": true, "shardWorkers": 2, "dpEpsilon": 1.0} {
		body := map[string]any{"dataset": "Rice", "rows": 40, "parties": 2, key: v}
		if code := serveJSON(t, s, "POST", "/v1/consortiums", body, nil); code != http.StatusBadRequest {
			t.Fatalf("create carrying %q returned %d, want 400", key, code)
		}
	}
	raw, err := json.Marshal(CreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	wantKeys := []string{"dataset", "keyBits", "parallelism", "parties",
		"rows", "scheme", "shuffleSeed", "splitSeed"}
	if !slices.Equal(keys, wantKeys) {
		t.Fatalf("encoded keys %v, want %v", keys, wantKeys)
	}
}

func TestConcurrentClients(t *testing.T) {
	ts := startServer(t)
	id := createTestConsortium(t, ts)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(seed int64) {
			var sel SelectResponse
			code := doJSON(t, "POST", fmt.Sprintf("%s/v1/consortiums/%s/select", ts.URL, id),
				SelectRequest{Count: 2, K: 5, NumQueries: 6, Seed: seed}, &sel)
			if code != 200 || len(sel.Selected) != 2 {
				done <- fmt.Errorf("seed %d: code %d sel %v", seed, code, sel.Selected)
				return
			}
			done <- nil
		}(int64(i))
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
