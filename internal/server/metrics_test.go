package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/repl"
)

// scrape GETs /metrics and returns the body, failing on any non-200 or
// wrong content type.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue sums every sample of the named family (with an optional
// label-substring filter) in a scrape.
func metricValue(t *testing.T, body, name, labelSub string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer family name sharing the prefix
		}
		if labelSub != "" && !strings.Contains(line, labelSub) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestMetricsEndpoint: the exposition parses, covers the engine's stage
// and request families plus the server's per-endpoint counters, and the
// request counter is monotone across scrapes.
func TestMetricsEndpoint(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, data)
	}

	body := scrape(t, ts)
	// Structural check: every sample line is "name[{labels}] value".
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("line %d unparseable: %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("line %d bad value: %q", ln+1, line)
		}
	}
	// The engine families ride the same scrape as the server's.
	for _, want := range []string{
		`nc_stage_seconds_count{stage="ctx_select"}`,
		`nc_stage_seconds_count{stage="compare"}`,
		`nc_stage_seconds_count{stage="ppr_solve"}`,
		`nc_request_seconds_count{op="do"}`,
		"nc_wal_fsync_seconds_count",
		"nc_http_shed_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	if got := metricValue(t, body, "nc_stage_seconds_count", `stage="compare"`); got < 1 {
		t.Errorf("compare stage count = %v after one search", got)
	}
	// The first ContextRW search of the epoch built its walk bank, once.
	if got := metricValue(t, body, "nc_stage_seconds_count", `stage="mine_bank_build"`); got != 1 {
		t.Errorf("mine_bank_build stage count = %v after one ContextRW search, want 1", got)
	}
	if got := metricValue(t, body, "nc_mine_bank_bytes", ""); got <= 0 {
		t.Errorf("nc_mine_bank_bytes = %v after a ContextRW search, want > 0", got)
	}

	before := metricValue(t, body, "nc_http_requests_total", `path="/v1/search"`)
	if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("second search status %d: %s", resp.StatusCode, data)
	}
	after := metricValue(t, scrape(t, ts), "nc_http_requests_total", `path="/v1/search"`)
	if after <= before {
		t.Fatalf("request counter not monotone: %v -> %v", before, after)
	}
}

// TestMetricsEndpointPending: a booting server (no engine) still serves
// its own registry.
func TestMetricsEndpointPending(t *testing.T) {
	s := NewPending(quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := scrape(t, ts)
	if !strings.Contains(body, "nc_http_requests_total") {
		t.Fatal("pending server scrape missing nc_http_requests_total")
	}
	if strings.Contains(body, "nc_stage_seconds") {
		t.Fatal("pending server scrape carries engine families with no engine set")
	}
}

// TestLogzEndpoint: requests land in the ring with their id and status;
// ?n= bounds the tail; the drain is non-consuming.
func TestLogzEndpoint(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}

	get := func(url string) logzResponse {
		t.Helper()
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("logz status %d", resp.StatusCode)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("logz Cache-Control %q", cc)
		}
		var lr logzResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}

	lr := get(ts.URL + "/v1/logz")
	if len(lr.Records) < 2 {
		t.Fatalf("expected ≥2 records, got %d", len(lr.Records))
	}
	var sawSearch bool
	for _, rec := range lr.Records {
		if rec.Path == "/v1/search" && rec.Status == http.StatusOK && rec.RequestID != "" {
			sawSearch = true
		}
	}
	if !sawSearch {
		t.Fatalf("no /v1/search record in %+v", lr.Records)
	}

	if got := get(ts.URL + "/v1/logz?n=1"); len(got.Records) != 1 {
		t.Fatalf("n=1 returned %d records", len(got.Records))
	}
	// Non-consuming: the same tail (plus the logz hits themselves) is
	// still there.
	if again := get(ts.URL + "/v1/logz"); len(again.Records) < len(lr.Records) {
		t.Fatalf("drain consumed the ring: %d then %d", len(lr.Records), len(again.Records))
	}
}

// TestStatszMetricsKey: /statsz carries one summary per histogram
// series under "histograms" — the compare stage apart from ctx_select,
// each request op apart — and the no-store header.
func TestStatszMetricsKey(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("statsz Cache-Control %q", cc)
	}
	var body obs.Stats
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	do, ok := body.Histograms[`nc_request_seconds{op="do"}`]
	if !ok {
		t.Fatalf("statsz histograms missing nc_request_seconds{op=\"do\"}: %v", body.Histograms)
	}
	if do.Count != 1 || do.P50MS <= 0 {
		t.Fatalf("implausible summary after one search: %+v", do)
	}
	if batch := body.Histograms[`nc_request_seconds{op="do_batch"}`]; batch.Count != 0 {
		t.Fatalf("do_batch summary counts the search: %+v", batch)
	}
	if cmp := body.Histograms[`nc_stage_seconds{stage="compare"}`]; cmp.Count != 1 {
		t.Fatalf("compare stage summary = %+v, want its own count of 1", cmp)
	}
	if _, merged := body.Histograms["nc_stage_seconds"]; merged {
		t.Fatal("statsz merges the stage family into one summary")
	}
	if _, ok := body.Histograms[`nc_http_request_seconds{path="/v1/search"}`]; !ok {
		t.Fatal("statsz histograms missing the server-side nc_http_request_seconds")
	}
}

// volatileSeries move between any two reads of a live process (the
// executor is process-wide, shared with whatever else runs); the
// equivalence check requires them on both surfaces but not equal.
var volatileSeries = map[string]bool{
	"nc_process_uptime_seconds": true,
	"nc_process_goroutines":     true,
	"nc_process_rss_bytes":      true,
	"nc_exec_busy":              true,
	"nc_exec_inline_runs_total": true,
}

// parseExposition splits a text scrape into counter and gauge samples
// (series name → value) and histogram series (series name → _count).
func parseExposition(t *testing.T, body string) (samples, hists map[string]float64) {
	t.Helper()
	samples, hists = map[string]float64{}, map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		series := line[:i]
		name, labels := series, ""
		if j := strings.IndexByte(series, '{'); j >= 0 {
			name, labels = series[:j], series[j:]
		}
		switch {
		case types[name] == "counter" || types[name] == "gauge":
			samples[series] = v
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			hists[strings.TrimSuffix(name, "_count")+labels] = v
		case strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum"):
		default:
			t.Fatalf("sample %q belongs to no declared family", line)
		}
	}
	return samples, hists
}

// sameSeries fails unless a quiescent /metrics scrape and /statsz
// document carry exactly the same series: every counter and gauge sample
// under the same name with the same value, every histogram series with
// its own summary of the same count.
func sameSeries(t *testing.T, h http.Handler) {
	t.Helper()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", path, rec.Code)
		}
		return rec
	}
	samples, hists := parseExposition(t, get("/metrics").Body.String())
	var st obs.Stats
	if err := json.Unmarshal(get("/statsz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(hists) == 0 {
		t.Fatalf("scrape carries %d samples and %d histograms", len(samples), len(hists))
	}
	for name, v := range samples {
		got, ok := st.Series[name]
		if !ok {
			t.Errorf("/statsz lacks %s", name)
		} else if got != v && !volatileSeries[name] {
			t.Errorf("%s: /metrics %v, /statsz %v", name, v, got)
		}
	}
	for name := range st.Series {
		if _, ok := samples[name]; !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	for name, n := range hists {
		if sum, ok := st.Histograms[name]; !ok || float64(sum.Count) != n {
			t.Errorf("%s: /metrics count %v, /statsz summary %+v (present %v)", name, n, sum, ok)
		}
	}
	for name := range st.Histograms {
		if _, ok := hists[name]; !ok {
			t.Errorf("/metrics lacks histogram %s", name)
		}
	}
}

// scrapeOnly routes GET /metrics and GET /statsz straight to the server's
// handlers, past the middleware that would count each scrape between
// the two reads.
func scrapeOnly(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// TestStatszMatchesMetrics: /statsz and /metrics are two renderings of
// one set of series — on a booting server, on servers over an in-memory
// and a durable engine, and on the router.
func TestStatszMatchesMetrics(t *testing.T) {
	search := func(t *testing.T, s *Server) {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
			"entities": []string{"Angela Merkel", "Barack Obama"},
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d: %s", resp.StatusCode, data)
		}
	}
	t.Run("booting", func(t *testing.T) {
		sameSeries(t, scrapeOnly(NewPending(quietCfg())))
	})
	t.Run("memory", func(t *testing.T) {
		s := New(testEngine(notable.Options{}), quietCfg())
		search(t, s)
		sameSeries(t, scrapeOnly(s))
	})
	t.Run("durable", func(t *testing.T) {
		eng, _, err := notable.NewDurableEngine(testGraph(), notable.Options{ContextSize: 6, Walks: 5000, Seed: 3},
			notable.Durability{WALDir: t.TempDir(), Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		s := New(eng, quietCfg())
		ts := httptest.NewServer(s.Handler())
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
			"adds": []map[string]string{{"s": "Angela Merkel", "p": "awarded", "o": "Nobel Prize"}},
		})
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
		}
		search(t, s)
		sameSeries(t, scrapeOnly(s))
	})
	t.Run("router", func(t *testing.T) {
		backend := New(testEngine(notable.Options{}), quietCfg())
		ts := httptest.NewServer(backend.Handler())
		defer ts.Close()
		rt, err := repl.NewRouter(repl.RouterConfig{
			Backends: []repl.Backend{{Name: "b0", URL: ts.URL}}, Primary: "b0", Client: ts.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := rt.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search",
			strings.NewReader(`{"entities":["Angela Merkel","Barack Obama"]}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("routed search status %d: %s", rec.Code, rec.Body)
		}
		sameSeries(t, h)
	})
}

// TestMetricsMemorySplit: the series that split a server's memory — the Go
// heap's live bytes and goal, the walk bank and the mapped seed vectors —
// parse and move. A RandomWalk search maps its cached seed vectors, and
// Close, which purges the cache, unmaps them again.
func TestMetricsMemorySplit(t *testing.T) {
	eng := testEngine(notable.Options{Selector: notable.SelectorRandomWalk})
	ts := httptest.NewServer(New(eng, quietCfg()).Handler())
	defer ts.Close()
	if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, data)
	}
	runtime.GC()
	body := scrape(t, ts)
	for _, name := range []string{"nc_process_heap_live_bytes", "nc_process_heap_goal_bytes"} {
		if got := metricValue(t, body, name, ""); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
	if !strings.Contains(body, "\nnc_mine_bank_bytes ") {
		t.Error("scrape missing nc_mine_bank_bytes")
	}
	// Both seeds' solves saturate on the test graph, so each maps 8n bytes.
	ours := float64(2 * 8 * eng.Graph().NumNodes())
	mapped := metricValue(t, body, "nc_ppr_seed_mapped_bytes", "")
	if mapped < ours {
		t.Fatalf("nc_ppr_seed_mapped_bytes = %v after a two-seed RandomWalk search, want ≥ %v", mapped, ours)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Engines other tests dropped may unmap theirs meanwhile: the gauge
	// can only fall further.
	if got := metricValue(t, scrape(t, ts), "nc_ppr_seed_mapped_bytes", ""); got > mapped-ours {
		t.Fatalf("nc_ppr_seed_mapped_bytes = %v after Close, want ≤ %v", got, mapped-ours)
	}
}
