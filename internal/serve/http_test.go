package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// call issues one API request and decodes the JSON response into out.
func call(t *testing.T, srv *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPI(t *testing.T) {
	g, err := NewManager(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	var health map[string]string
	if code := call(t, srv, "GET", "/v1/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: code=%d body=%v", code, health)
	}

	// Create a kv session with tracing on.
	var created struct {
		ID   string `json:"id"`
		Spec Spec   `json:"spec"`
	}
	spec := Spec{Workload: "kv", Nodes: 4, Keys: 16, Gateways: 2, Trace: true, MetricsEvery: 64}
	if code := call(t, srv, "POST", "/v1/sessions", spec, &created); code != 201 {
		t.Fatalf("create: code=%d", code)
	}
	if created.Spec.Budget == 0 {
		t.Error("create did not return the normalized spec")
	}
	id := created.ID

	// Bad spec is rejected.
	if code := call(t, srv, "POST", "/v1/sessions", Spec{Workload: "kv", Nodes: 5}, nil); code != 400 {
		t.Errorf("bad spec: code=%d, want 400", code)
	}

	// Step, then kv ops, then digest.
	var stepped struct {
		Cycle int64 `json:"cycle"`
	}
	if code := call(t, srv, "POST", "/v1/sessions/"+id+"/step", map[string]int64{"cycles": 100}, &stepped); code != 200 || stepped.Cycle < 100 {
		t.Fatalf("step: code=%d cycle=%d", code, stepped.Cycle)
	}
	var kvResp struct {
		Results []KVResult `json:"results"`
	}
	ops := map[string]any{"ops": []KVOp{{Op: "put", Key: 2, Value: 7}}}
	if code := call(t, srv, "POST", "/v1/sessions/"+id+"/kv", ops, &kvResp); code != 200 || len(kvResp.Results) != 1 {
		t.Fatalf("kv: code=%d results=%v", code, kvResp.Results)
	}
	if kvResp.Results[0].Version != 1 {
		t.Errorf("put version = %d, want 1", kvResp.Results[0].Version)
	}
	var dig struct {
		Cycle  int64  `json:"cycle"`
		Digest string `json:"digest"`
	}
	if code := call(t, srv, "GET", "/v1/sessions/"+id+"/digest", nil, &dig); code != 200 || len(dig.Digest) != 16 {
		t.Fatalf("digest: code=%d %+v", code, dig)
	}

	// Timeline and metrics stream non-empty prefixes.
	for _, ep := range []string{"timeline", "metrics"} {
		resp, err := srv.Client().Get(srv.URL + "/v1/sessions/" + id + "/" + ep)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || buf.Len() == 0 {
			t.Errorf("%s: code=%d len=%d", ep, resp.StatusCode, buf.Len())
		}
		if ep == "timeline" && !strings.Contains(buf.String(), "traceEvents") {
			t.Errorf("timeline is not a Perfetto stream: %.80s", buf.String())
		}
	}

	// Snapshot and statz respond.
	if code := call(t, srv, "GET", "/v1/sessions/"+id+"/snapshot", nil, &map[string]any{}); code != 200 {
		t.Errorf("snapshot: code=%d", code)
	}
	var st Stats
	if code := call(t, srv, "GET", "/v1/statz", nil, &st); code != 200 || st.Sessions != 1 {
		t.Errorf("statz: code=%d %+v", code, st)
	}

	// List shows the session; delete removes it; 404 afterwards.
	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if code := call(t, srv, "GET", "/v1/sessions", nil, &list); code != 200 || len(list.Sessions) != 1 {
		t.Fatalf("list: code=%d %+v", code, list)
	}
	if code := call(t, srv, "DELETE", "/v1/sessions/"+id, nil, nil); code != 200 {
		t.Fatalf("delete: code=%d", code)
	}
	if code := call(t, srv, "GET", "/v1/sessions/"+id, nil, nil); code != 404 {
		t.Errorf("get after delete: code=%d, want 404", code)
	}
	if code := call(t, srv, "GET", "/v1/sessions/nope/digest", nil, nil); code != 404 {
		t.Errorf("unknown id: code=%d, want 404", code)
	}
}

// TestHTTPSessionDeterminism drives two sessions through the same op
// stream over real HTTP from concurrent clients and cross-checks the
// digests against the in-process replay.
func TestHTTPSessionDeterminism(t *testing.T) {
	g, err := NewManager(t.TempDir(), 1) // churn: one resident slot
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	spec := Spec{Workload: "kv", Nodes: 4, Keys: 16, Gateways: 2}
	ids := make([]string, 2)
	for i := range ids {
		var created struct {
			ID string `json:"id"`
		}
		if code := call(t, srv, "POST", "/v1/sessions", spec, &created); code != 201 {
			t.Fatalf("create: code=%d", code)
		}
		ids[i] = created.ID
	}
	ops := GenOps(99, 16, 16)
	var reqs []ReplayReq
	for i := 0; i < len(ops); i += 4 {
		reqs = append(reqs, ReplayReq{Ops: ops[i : i+4]})
	}
	done := make(chan error, len(ids))
	for _, id := range ids {
		go func(id string) {
			for _, req := range reqs {
				data, _ := json.Marshal(map[string]any{"ops": req.Ops})
				resp, err := srv.Client().Post(
					srv.URL+"/v1/sessions/"+id+"/kv", "application/json", bytes.NewReader(data))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					done <- fmt.Errorf("kv on %s: status %d", id, resp.StatusCode)
					return
				}
			}
			done <- nil
		}(id)
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := Replay(spec, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var dig struct {
			Digest string `json:"digest"`
		}
		if code := call(t, srv, "GET", "/v1/sessions/"+id+"/digest", nil, &dig); code != 200 {
			t.Fatalf("digest: code=%d", code)
		}
		if dig.Digest != fmt.Sprintf("%016x", want) {
			t.Errorf("session %s digest %s, want %016x", id, dig.Digest, want)
		}
	}
}

// TestHTTPAdmissionLimits checks that oversized sessions are refused
// with 400 before any machine is built, and that every endpoint that
// decodes a body refuses one beyond MaxBodyBytes with 413.
func TestHTTPAdmissionLimits(t *testing.T) {
	g, err := NewManager(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	for _, spec := range []Spec{
		{Workload: "kv", Nodes: 2 * MaxNodes},
		{Workload: "kv", Nodes: 8, Shards: MaxShards + 1},
		{Workload: "kv", Nodes: 8, Budget: MaxBudget + 1},
		{Workload: "jlang", Source: "x", Nodes: MaxNodes + 1},
	} {
		var body map[string]string
		if code := call(t, srv, "POST", "/v1/sessions", spec, &body); code != http.StatusBadRequest {
			t.Errorf("create %+v: code=%d, want 400", spec, code)
		}
		if !strings.Contains(body["error"], "exceeds the limit") {
			t.Errorf("create %+v: error %q does not name the limit", spec, body["error"])
		}
	}
	if n := len(g.List()); n != 0 {
		t.Fatalf("%d sessions exist after refused creates", n)
	}

	var created struct {
		ID string `json:"id"`
	}
	if code := call(t, srv, "POST", "/v1/sessions", Spec{Workload: "kv", Nodes: 8}, &created); code != http.StatusCreated {
		t.Fatalf("create within limits: code=%d", code)
	}
	// A well-formed JSON body whose padding pushes it past the limit.
	huge := `{"pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}`
	for _, path := range []string{
		"/v1/sessions",
		"/v1/sessions/" + created.ID + "/step",
		"/v1/sessions/" + created.ID + "/run",
		"/v1/sessions/" + created.ID + "/kv",
	} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: code=%d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	var body map[string]any
	if code := call(t, srv, "POST", "/v1/sessions/"+created.ID+"/step", map[string]int{"cycles": 10}, &body); code != http.StatusOK {
		t.Errorf("step after refused bodies: code=%d body=%v", code, body)
	}
}
