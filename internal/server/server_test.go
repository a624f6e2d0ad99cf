package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// testGraph is the leaders fixture: small enough that a search is
// sub-millisecond, structured enough that studied/hasChild come out
// notable.
func testGraph() *notable.Graph {
	b := notable.NewBuilder(128)
	leaders := []string{"Angela Merkel", "Barack Obama", "Vladimir Putin",
		"Matteo Renzi", "François Hollande", "David Cameron", "Xi Jinping",
		"Justin Trudeau", "Shinzo Abe", "Dilma Rousseff"}
	for i, l := range leaders {
		b.SetType(l, "politician")
		b.AddEdge(l, "memberOf", "G20")
		b.AddEdge(l, "attended", "Summit")
		for d := 1; d <= 3; d++ {
			b.AddEdge(l, "met", leaders[(i+d)%len(leaders)])
		}
		if l == "Angela Merkel" {
			b.AddEdge(l, "studied", "Physics")
			continue
		}
		b.AddEdge(l, "studied", "Law")
		b.AddEdge(l, "hasChild", "Child of "+l)
	}
	return b.Build()
}

func testEngine(opt notable.Options) *notable.Engine {
	if opt.ContextSize == 0 {
		opt.ContextSize = 6
	}
	if opt.Walks == 0 {
		opt.Walks = 5000
	}
	if opt.Seed == 0 {
		opt.Seed = 3
	}
	return notable.NewEngine(testGraph(), opt)
}

// quietCfg silences logs and shrinks timeouts for tests; individual tests
// override fields.
func quietCfg() Config {
	return Config{
		Logf:           func(string, ...any) {},
		RequestTimeout: 5 * time.Second,
		DrainTimeout:   5 * time.Second,
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSearchEndpoint: a plain search answers 200 with the flattened
// result, a request id, and degraded=false.
func TestSearchEndpoint(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID header")
	}
	var sr searchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Degraded {
		t.Fatal("uncut search marked degraded")
	}
	if len(sr.Context) == 0 || len(sr.Characteristics) == 0 {
		t.Fatalf("empty result: %s", data)
	}
	if sr.Tested != sr.Total || sr.Tested != len(sr.Characteristics) {
		t.Fatalf("tested/total %d/%d with %d records", sr.Tested, sr.Total, len(sr.Characteristics))
	}
	names := map[string]bool{}
	for _, c := range sr.Characteristics {
		names[c.Label] = true
	}
	if !names["studied"] && !names["hasChild"] {
		t.Fatalf("expected studied/hasChild in report: %s", data)
	}

	// Inbound request ids are honored end to end.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/search",
		strings.NewReader(`{"entities":["Angela Merkel","Barack Obama"]}`))
	req.Header.Set("X-Request-ID", "test-rid-42")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "test-rid-42" {
		t.Fatalf("request id not echoed: %q", got)
	}
}

// TestHugeContextSize: a context_size far beyond the graph is a valid
// request for every candidate — 200 with at most one item per node — and
// allocates nothing in proportion to the number asked for.
func TestHugeContextSize(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, sel := range []string{"", notable.SelectorRandomWalk} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
			"entities":     []string{"Angela Merkel", "Barack Obama"},
			"context_size": int64(1) << 40,
			"selector":     sel,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("selector %q: status %d: %s", sel, resp.StatusCode, data)
		}
		var sr searchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if n := testGraph().NumNodes(); len(sr.Context) == 0 || len(sr.Context) > n {
			t.Fatalf("selector %q: %d context items on a %d-node graph", sel, len(sr.Context), n)
		}
	}
}

// TestErrorMapping: typed library errors and request-shape failures map
// to the right statuses — never a generic 500.
func TestErrorMapping(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxBodyBytes = 512
	s := New(testEngine(notable.Options{}), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// unresolved1 is a batch whose query 1 names an unknown entity.
	const unresolved1 = `{"queries":[{"entities":["Angela Merkel"]},{"entities":["Zzyzx Nobody"]}]}`
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		msg    string // a substring the error body must carry, if set
	}{
		{"malformed JSON", "/v1/search", `{"entities": [`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/search", `{"entitees": ["X"]}`, http.StatusBadRequest, ""},
		{"empty query", "/v1/search", `{}`, http.StatusBadRequest, ""},
		{"bad override", "/v1/search", `{"entities":["Angela Merkel"],"top_k":-1}`, http.StatusBadRequest, ""},
		{"bad alpha", "/v1/search", `{"entities":["Angela Merkel"],"alpha":1.5}`, http.StatusBadRequest, ""},
		{"unknown selector", "/v1/search", `{"entities":["Angela Merkel"],"selector":"RandomWalk"}`, http.StatusBadRequest, ""},
		{"unknown policy", "/v1/search", `{"entities":["Angela Merkel"],"policy":"pooledd"}`, http.StatusBadRequest, ""},
		{"node id out of range", "/v1/search", `{"nodes":[999999]}`, http.StatusBadRequest, ""},
		{"walks over the engine's budget", "/v1/search", `{"entities":["Angela Merkel"],"walks":5001}`, http.StatusBadRequest, "budget"},
		{"test_samples over the engine's cap", "/v1/search", `{"entities":["Angela Merkel"],"test_samples":20001}`, http.StatusBadRequest, "cap 20000"},
		{"empty batch", "/v1/batch", `{"queries":[]}`, http.StatusBadRequest, "empty batch"},
		{"unresolved entity in batch query 1", "/v1/batch", unresolved1, http.StatusBadRequest, "query 1:"},
		{"bad override in batch", "/v1/batch", `{"queries":[{"entities":["Angela Merkel"],"top_k":-1}]}`, http.StatusBadRequest, "TopK"},
		{"empty stream", "/v1/stream", `{"queries":[]}`, http.StatusBadRequest, "empty batch"},
		{"unknown field in stream", "/v1/stream", `{"querys":[]}`, http.StatusBadRequest, "querys"},
		{"unresolved entity in stream query 1", "/v1/stream", unresolved1, http.StatusBadRequest, "query 1:"},
		{"oversized body", "/v1/search", `{"entities":["` + strings.Repeat("x", 600) + `"]}`, http.StatusRequestEntityTooLarge, ""},
	}
	for _, tc := range cases {
		resp, err := client.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		if !strings.Contains(string(data), tc.msg) {
			t.Fatalf("%s: body %s lacks %q", tc.name, data, tc.msg)
		}
	}

	// Unresolved entities: 400 carrying the missing names.
	resp, data := postJSON(t, client, ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Zzyzx Nobody"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unresolved: status %d", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Missing) != 1 || er.Missing[0] != "Zzyzx Nobody" {
		t.Fatalf("missing = %v", er.Missing)
	}

	// GET on an engine endpoint: 405 with Allow.
	getResp, err := client.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed || getResp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET: status %d allow %q", getResp.StatusCode, getResp.Header.Get("Allow"))
	}
}

// TestWalksOverrideBound: a walks override above the engine's budget is a
// 400, and one below it answers as an engine configured with that budget
// does, bit for bit.
func TestWalksOverrideBound(t *testing.T) {
	search := func(e *notable.Engine, body map[string]any) (int, searchResponse) {
		t.Helper()
		ts := httptest.NewServer(New(e, quietCfg()).Handler())
		defer ts.Close()
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", body)
		var sr searchResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Fatal(err)
			}
			sr.RequestID, sr.ElapsedMS = "", 0
		}
		return resp.StatusCode, sr
	}
	entities := []string{"Angela Merkel", "Barack Obama"}
	big := testEngine(notable.Options{Walks: 5000})
	if code, _ := search(big, map[string]any{"entities": entities, "walks": 5001}); code != http.StatusBadRequest {
		t.Fatalf("walks above the budget: status %d, want 400", code)
	}
	code, got := search(big, map[string]any{"entities": entities, "walks": 2000})
	if code != http.StatusOK {
		t.Fatalf("walks below the budget: status %d", code)
	}
	_, want := search(testEngine(notable.Options{Walks: 2000}), map[string]any{"entities": entities})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walks 2000 on a 5000-walk engine:\n got %+v\nwant %+v (a 2000-walk engine)", got, want)
	}
}

// TestBatchAndStreamEndpoints: the batch answer preserves order; the
// stream carries one NDJSON line per query with per-query error
// isolation.
func TestBatchAndStreamEndpoints(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := map[string]any{"queries": []map[string]any{
		{"entities": []string{"Angela Merkel", "Barack Obama"}},
		{"entities": []string{"Vladimir Putin"}, "top_k": 2},
	}}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d results", len(br.Results))
	}
	if got := br.Results[1].Query; len(got) != 1 || got[0] != "Vladimir Putin" {
		t.Fatalf("order lost: result 1 query = %v", got)
	}
	if len(br.Results[1].Characteristics) > 2 {
		t.Fatalf("top_k=2 ignored: %d records", len(br.Results[1].Characteristics))
	}

	// Stream: a bad query mid-batch becomes one error line, not a dead
	// connection.
	streamBody := map[string]any{"queries": []map[string]any{
		{"entities": []string{"Angela Merkel", "Barack Obama"}},
		{"top_k": -1, "entities": []string{"Angela Merkel"}},
		{"entities": []string{"Vladimir Putin"}},
	}}
	buf, _ := json.Marshal(streamBody)
	sresp, err := ts.Client().Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	seen := map[int]streamOutcome{}
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var o streamOutcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		seen[o.Index] = o
	}
	if len(seen) != 3 {
		t.Fatalf("%d outcomes, want 3", len(seen))
	}
	if seen[1].Error == "" || !strings.Contains(seen[1].Error, "TopK") {
		t.Fatalf("outcome 1 error = %q, want a TopK validation error", seen[1].Error)
	}
	for _, i := range []int{0, 2} {
		if seen[i].Error != "" || seen[i].Result == nil || len(seen[i].Result.Characteristics) == 0 {
			t.Fatalf("outcome %d = %+v, want a completed result", i, seen[i])
		}
	}
}

// TestStatszEndpoint: the stats payload carries the gauges an operator
// tunes by — admission gate, cache layers, in-flight — and they move.
func TestStatszEndpoint(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{"entities": []string{"Angela Merkel"}})
	st := getStatsz(t, ts).Series
	if st["nc_server_max_in_flight"] < 1 || st["nc_server_draining"] != 0 || st["nc_server_in_flight"] != 0 {
		t.Fatalf("gauges: %v", st)
	}
	if st["nc_cache_entries"] == 0 {
		t.Fatalf("cache shows no residency after a search: %v", st)
	}
	if st["nc_process_goroutines"] < 1 || st["nc_process_uptime_seconds"] < 0 {
		t.Fatalf("process stats: %v", st)
	}
}

// countdownCtx is a ctx whose Err reports context.DeadlineExceeded — what
// an expired request deadline reports — from its (k+1)-th probe on: the
// engine probes its ctx between sweeps and label tests, so a countdown
// cuts a request at a fixed point of its work, whatever the host's speed.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

// setEngineCtx installs wrap as the engine-ctx test seam for the rest of
// the test.
func setEngineCtx(t *testing.T, wrap func(context.Context) context.Context) {
	t.Helper()
	testEngineCtx.Store(&wrap)
	t.Cleanup(func() { testEngineCtx.Store(nil) })
}

// countdownAfter cuts every engine call from now on at its (k+1)-th ctx
// probe, and returns the countdown last installed, for reading its count.
func countdownAfter(t *testing.T, k int64) *atomic.Pointer[countdownCtx] {
	var last atomic.Pointer[countdownCtx]
	setEngineCtx(t, func(ctx context.Context) context.Context {
		c := &countdownCtx{Context: ctx}
		c.left.Store(k)
		last.Store(c)
		return c
	})
	return &last
}

// TestDegradedHTTP: a deadline that lands mid-comparison yields HTTP 200
// with degraded=true and a non-empty prefix of the full report — and with
// "degrade": false, a 504 instead.
func TestDegradedHTTP(t *testing.T) {
	// Labels are tested one at a time in label order, one ctx probe each.
	// The deadline is a countdown of ctx probes, so where it lands does not
	// depend on how long any stage takes on this host.
	var opt notable.Options
	eng := testEngine(opt)
	s := New(eng, quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Full report size and probe count, measured without a cut.
	const uncut = 1 << 40
	probe := countdownAfter(t, uncut)
	full, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	if full.StatusCode != http.StatusOK {
		t.Fatalf("full: status %d: %s", full.StatusCode, data)
	}
	var fullResp searchResponse
	if err := json.Unmarshal(data, &fullResp); err != nil {
		t.Fatal(err)
	}
	if fullResp.Degraded {
		t.Fatalf("uncut request came back degraded: %s", data)
	}
	fullByLabel := map[string]wireCharacteristic{}
	for _, c := range fullResp.Characteristics {
		fullByLabel[c.Label] = c
	}
	probes := uncut - probe.Load().left.Load()

	// coldSearch posts the query to a cold-cache engine (a warm one would
	// answer from its cache): same options, fresh process state.
	coldSearch := func(extra map[string]any) (*http.Response, []byte) {
		ts := httptest.NewServer(New(testEngine(opt), quietCfg()).Handler())
		defer ts.Close()
		body := map[string]any{"entities": []string{"Angela Merkel", "Barack Obama"}}
		for k, v := range extra {
			body[k] = v
		}
		return postJSON(t, ts.Client(), ts.URL+"/v1/search", body)
	}

	// Walk the cut back from the uncut probe count until it lands before
	// the last label's claim; the few probes after the comparison stage
	// separate the two.
	var (
		resp *http.Response
		dr   searchResponse
		cut  int64
	)
	for cut = probes - 1; ; cut-- {
		if cut < 0 {
			t.Fatal("no cut left a label untested")
		}
		countdownAfter(t, cut)
		resp, data = coldSearch(nil)
		dr = searchResponse{}
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Tested < dr.Total {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: status %d: %s", resp.StatusCode, data)
	}
	if !dr.Degraded {
		t.Fatalf("deadline-cut response not degraded: %s", data)
	}
	if dr.Tested == 0 || len(dr.Characteristics) == 0 {
		t.Fatalf("degraded response carries no partial work: %s", data)
	}
	if dr.Tested >= dr.Total || dr.Total != len(fullResp.Characteristics) {
		t.Fatalf("tested/total = %d/%d, full report has %d", dr.Tested, dr.Total, len(fullResp.Characteristics))
	}
	for _, c := range dr.Characteristics {
		fc, ok := fullByLabel[c.Label]
		if !ok {
			t.Fatalf("degraded label %q absent from full report", c.Label)
		}
		if c != fc {
			t.Fatalf("degraded record for %q differs from the full run:\n  got  %+v\n  want %+v", c.Label, c, fc)
		}
	}

	// Opting out of degradation turns the same cut into a 504.
	countdownAfter(t, cut)
	resp3, data3 := coldSearch(map[string]any{"degrade": false})
	if resp3.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("degrade=false: status %d: %s", resp3.StatusCode, data3)
	}
}

// TestHealthz: plain ok before any drain.
func TestHealthz(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}
}
