package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeReplica is a scriptable stand-in for one serving node: per-path
// hit counters, a settable answer status, an answer delay, and a
// flippable /healthz.
type fakeReplica struct {
	name       string
	srv        *httptest.Server
	searchHits atomic.Int64
	ingestHits atomic.Int64
	status     atomic.Int32
	delay      atomic.Int64 // nanoseconds
	healthOK   atomic.Bool
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name}
	f.status.Store(http.StatusOK)
	f.healthOK.Store(true)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			if f.healthOK.Load() {
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, `{"status":"ok","epoch":7}`)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"status":"catching-up","epoch":2}`)
			}
			return
		case "/v1/ingest":
			f.ingestHits.Add(1)
		default:
			f.searchHits.Add(1)
		}
		if d := time.Duration(f.delay.Load()); d > 0 {
			time.Sleep(d)
		}
		st := int(f.status.Load())
		w.Header().Set("Content-Type", "application/json")
		if st == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "2")
		}
		w.WriteHeader(st)
		fmt.Fprintf(w, `{"served_by":%q}`, f.name)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// testFleet builds named fake replicas and a router over them; names[0]
// is the primary. Hedging is off unless a test opts in.
func testFleet(t *testing.T, names []string, mut func(*RouterConfig)) (map[string]*fakeReplica, *Router) {
	t.Helper()
	reps := make(map[string]*fakeReplica, len(names))
	backends := make([]Backend, 0, len(names))
	for _, n := range names {
		f := newFakeReplica(t, n)
		reps[n] = f
		backends = append(backends, Backend{Name: n, URL: f.srv.URL})
	}
	cfg := RouterConfig{
		Backends:   backends,
		Primary:    names[0],
		HedgeAfter: -1,
		Logf:       t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reps, rt
}

func doRouter(rt *Router, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec
}

const searchBody = `{"entities":["Angela Merkel","Barack Obama"]}`

// readOrder returns the fleet's ring-walk order for the canonical test
// query — owner first, then the fallback slots.
func readOrder(rt *Router) []string {
	return rt.ring.Order(requestKey("/v1/search", []byte(searchBody)))
}

// TestIngestGoesToPrimaryOnly: a write lands on the primary and nowhere
// else, whatever the ring says about the body's key.
func TestIngestGoesToPrimaryOnly(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
	rec := doRouter(rt, http.MethodPost, "/v1/ingest", `{"adds":[{"s":"a","p":"b","o":"c"}]}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Served-By"); got != "primary" {
		t.Fatalf("ingest served by %q, want primary", got)
	}
	for name, f := range reps {
		want := int64(0)
		if name == "primary" {
			want = 1
		}
		if got := f.ingestHits.Load(); got != want {
			t.Fatalf("backend %s saw %d ingests, want %d", name, got, want)
		}
	}
}

// TestIngestNeverRetried: a failed write — whether the primary answered
// 5xx or the connection died — must reach exactly one backend exactly
// once. The attempt may have been applied and fsync'd; replaying it
// anywhere would double-apply.
func TestIngestNeverRetried(t *testing.T) {
	t.Run("primary answers 500", func(t *testing.T) {
		reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
		reps["primary"].status.Store(http.StatusInternalServerError)
		rec := doRouter(rt, http.MethodPost, "/v1/ingest", `{"adds":[{"s":"a","p":"b","o":"c"}]}`, nil)
		// The 500 passes through untouched: retryable for reads, final for
		// writes.
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want the primary's 500", rec.Code)
		}
		if got := reps["primary"].ingestHits.Load(); got != 1 {
			t.Fatalf("primary saw %d ingest attempts, want exactly 1", got)
		}
		if got := reps["r1"].ingestHits.Load() + reps["r2"].ingestHits.Load(); got != 0 {
			t.Fatalf("replicas saw %d ingest attempts, want 0", got)
		}
	})
	t.Run("primary unreachable", func(t *testing.T) {
		reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
		reps["primary"].srv.Close()
		rec := doRouter(rt, http.MethodPost, "/v1/ingest", `{"adds":[{"s":"a","p":"b","o":"c"}]}`, nil)
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("status %d, want 502", rec.Code)
		}
		if got := reps["r1"].ingestHits.Load() + reps["r2"].ingestHits.Load(); got != 0 {
			t.Fatalf("replicas saw %d ingest attempts after primary death, want 0", got)
		}
	})
}

// TestReadFailsOverAlongRing: a 503 from the owner moves the read to
// the next ring slot; the client sees the fallback's 200.
func TestReadFailsOverAlongRing(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
	order := readOrder(rt)
	reps[order[0]].status.Store(http.StatusServiceUnavailable)

	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Served-By"); got != order[1] {
		t.Fatalf("served by %q, want the next ring slot %q (order %v)", got, order[1], order)
	}
	if got := reps[order[0]].searchHits.Load(); got != 1 {
		t.Fatalf("owner tried %d times, want 1", got)
	}
	if got := reps[order[2]].searchHits.Load(); got != 0 {
		t.Fatalf("third slot saw %d requests, want 0", got)
	}
}

// TestReadFailsOverOnNetworkError: a dead owner (connection refused) is
// skipped the same way.
func TestReadFailsOverOnNetworkError(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
	order := readOrder(rt)
	reps[order[0]].srv.Close()

	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Served-By"); got != order[1] {
		t.Fatalf("served by %q, want %q", got, order[1])
	}
}

// TestClientErrorIsFinal: a 4xx is a property of the request; spending
// a second replica on it would just fail twice.
func TestClientErrorIsFinal(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
	order := readOrder(rt)
	reps[order[0]].status.Store(http.StatusBadRequest)

	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want the owner's 400", rec.Code)
	}
	if got := reps[order[1]].searchHits.Load() + reps[order[2]].searchHits.Load(); got != 0 {
		t.Fatalf("fallback slots saw %d requests for a 4xx, want 0", got)
	}
}

// TestOversizedResponseRefused: an upstream response past the buffer cap
// is answered with a JSON 502 naming the cap, never relayed cut short
// under the upstream's 200. The size is a property of the request, so no
// other replica is tried and no breaker is charged; a response exactly at
// the cap still relays whole.
func TestOversizedResponseRefused(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, func(cfg *RouterConfig) {
		cfg.BreakerFails = 1 // one charge would open a breaker
	})
	order := readOrder(rt)
	rt.maxResp = 8
	for _, path := range []string{"/v1/search", "/v1/ingest"} {
		rec := doRouter(rt, http.MethodPost, path, searchBody, nil)
		var e routerError
		if rec.Code != http.StatusBadGateway || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "8 bytes") {
			t.Fatalf("%s: status %d body %q, want a JSON 502 naming the 8-byte cap", path, rec.Code, rec.Body)
		}
	}
	for name, f := range reps {
		want := int64(0)
		if name == order[0] {
			want = 1
		}
		if f.searchHits.Load() != want {
			t.Fatalf("backend %s saw %d reads, want %d", name, f.searchHits.Load(), want)
		}
		if !rt.by[name].available() {
			t.Fatalf("backend %s's breaker was charged for an oversized response", name)
		}
	}
	if got := reps["primary"].ingestHits.Load(); got != 1 {
		t.Fatalf("primary saw %d ingests, want 1", got)
	}

	whole := fmt.Sprintf(`{"served_by":%q}`, order[0])
	rt.maxResp = int64(len(whole))
	if rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil); rec.Code != http.StatusOK || rec.Body.String() != whole {
		t.Fatalf("at-cap response: status %d body %q, want 200 %q", rec.Code, rec.Body, whole)
	}
}

// TestAllFailedReplaysHonestBackpressure: when every slot answers 503,
// the client gets a real replica's 503 with its Retry-After — evidence
// beats a synthesized 502.
func TestAllFailedReplaysHonestBackpressure(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
	for _, f := range reps {
		f.status.Store(http.StatusServiceUnavailable)
	}
	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want a replayed 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("replayed 503 lost its Retry-After")
	}
	for name, f := range reps {
		if got := f.searchHits.Load(); got != 1 {
			t.Fatalf("backend %s tried %d times, want exactly 1", name, got)
		}
	}
}

// TestHedgeFiresAtMostOnce: a slow owner triggers exactly one hedge at
// the next slot; the fast answer wins and the third slot is never
// touched.
func TestHedgeFiresAtMostOnce(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, func(cfg *RouterConfig) {
		cfg.HedgeAfter = 30 * time.Millisecond
	})
	order := readOrder(rt)
	reps[order[0]].delay.Store(int64(400 * time.Millisecond))

	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Served-By"); got != order[1] {
		t.Fatalf("served by %q, want the hedged slot %q", got, order[1])
	}
	// Give the slow owner time to finish so counters are settled.
	time.Sleep(500 * time.Millisecond)
	if got := reps[order[0]].searchHits.Load(); got != 1 {
		t.Fatalf("owner saw %d requests, want 1", got)
	}
	if got := reps[order[1]].searchHits.Load(); got != 1 {
		t.Fatalf("hedged slot saw %d requests, want exactly 1", got)
	}
	if got := reps[order[2]].searchHits.Load(); got != 0 {
		t.Fatalf("third slot saw %d requests, want 0 (one hedge only)", got)
	}
}

// TestHedgeNeverTouchesIngest: hedging is a read-path feature; a slow
// primary write must not fan out.
func TestHedgeNeverTouchesIngest(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, func(cfg *RouterConfig) {
		cfg.HedgeAfter = 10 * time.Millisecond
	})
	reps["primary"].delay.Store(int64(150 * time.Millisecond))
	rec := doRouter(rt, http.MethodPost, "/v1/ingest", `{"adds":[{"s":"a","p":"b","o":"c"}]}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d", rec.Code)
	}
	total := int64(0)
	for _, f := range reps {
		total += f.ingestHits.Load()
	}
	if total != 1 {
		t.Fatalf("fleet saw %d ingest attempts for one slow write, want 1", total)
	}
}

// TestBreakerOpensOnConsecutiveFailures: request failures open the
// owner's circuit; further reads skip it entirely until cooldown.
func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1"}, func(cfg *RouterConfig) {
		cfg.BreakerFails = 2
		cfg.BreakerCooldown = time.Minute
	})
	order := readOrder(rt)
	reps[order[0]].status.Store(http.StatusServiceUnavailable)

	// Two failing reads charge the breaker open.
	for i := 0; i < 2; i++ {
		if rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil); rec.Code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, rec.Code)
		}
	}
	if rt.by[order[0]].available() {
		t.Fatal("owner still available after BreakerFails consecutive failures")
	}
	before := reps[order[0]].searchHits.Load()
	if rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("post-breaker read: status %d", rec.Code)
	}
	if got := reps[order[0]].searchHits.Load(); got != before {
		t.Fatalf("breaker-open owner still saw a request (%d → %d)", before, got)
	}

	// statsz reports the open circuit.
	rec := doRouter(rt, http.MethodGet, "/statsz", "", nil)
	var stats obs.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	open, ok := stats.Series[`nc_router_backend_breaker_open{backend="`+order[0]+`"}`]
	if !ok {
		t.Fatalf("statsz missing backend %s: %v", order[0], stats.Series)
	}
	if open != 1 {
		t.Fatal("statsz does not report the open breaker")
	}
}

// TestProbeMarksUnreadyBackendDown: a replica answering /healthz with
// 503 (alive but catching up) is routed around, and rejoins once its
// probe goes green — the active half of failure awareness.
func TestProbeMarksUnreadyBackendDown(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1"}, func(cfg *RouterConfig) {
		cfg.ProbeInterval = 10 * time.Millisecond
		cfg.FailWindow = 2
	})
	order := readOrder(rt)
	reps[order[0]].healthOK.Store(false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return !rt.by[order[0]].healthy.Load() }, "probes to mark the unready backend down")

	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Served-By"); got != order[1] {
		t.Fatalf("served by %q while %q is down, want %q", got, order[0], order[1])
	}
	if got := reps[order[0]].searchHits.Load(); got != 0 {
		t.Fatalf("down backend saw %d reads, want 0", got)
	}

	// Recovery: probe goes green, the backend rejoins, owner routing
	// resumes.
	reps[order[0]].healthOK.Store(true)
	waitFor(func() bool { return rt.by[order[0]].healthy.Load() }, "probes to mark the backend healthy again")
	rec = doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if got := rec.Header().Get("X-Served-By"); got != order[0] {
		t.Fatalf("served by %q after recovery, want owner %q", got, order[0])
	}
}

// TestLastGaspRouting: with every backend marked down, the router still
// tries the fleet instead of refusing outright — a request against a
// suspect fleet beats a guaranteed error.
func TestLastGaspRouting(t *testing.T) {
	_, rt := testFleet(t, []string{"primary", "r1"}, nil)
	for _, b := range rt.order {
		b.healthy.Store(false)
	}
	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: last-gasp routing should still reach live processes", rec.Code)
	}
	// The router's own healthz is honest about the fleet view meanwhile.
	if rec := doRouter(rt, http.MethodGet, "/healthz", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("router healthz %d with all backends down, want 503", rec.Code)
	}
}

// TestRequestKeyAffinity: single and batch requests for the same
// logical query share a routing key (batch keys on its first query);
// unparseable bodies still get a deterministic key.
func TestRequestKeyAffinity(t *testing.T) {
	single := requestKey("/v1/search", []byte(searchBody))
	reordered := requestKey("/v1/search", []byte(`{"entities":["Barack Obama","Angela Merkel"]}`))
	if single != reordered {
		t.Fatalf("entity order changed the routing key:\n %s\n %s", single, reordered)
	}
	batch := requestKey("/v1/batch", []byte(`{"queries":[{"entities":["Angela Merkel","Barack Obama"]},{"entities":["Xi Jinping"]}]}`))
	if batch != single {
		t.Fatalf("batch key differs from its first query's key:\n %s\n %s", batch, single)
	}
	raw := requestKey("/v1/search", []byte(`not json`))
	if raw != "raw:not json" {
		t.Fatalf("unparseable body key %q", raw)
	}
}

// TestMinEpochHeaderForwarded: the read-your-writes floor survives the
// proxy hop in both directions.
func TestMinEpochHeaderForwarded(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary"}, nil)
	var gotMin atomic.Value
	orig := reps["primary"].srv.Config.Handler
	reps["primary"].srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotMin.Store(r.Header.Get("X-Min-Epoch"))
		w.Header().Set("X-Replica-Epoch", "41")
		orig.ServeHTTP(w, r)
	})
	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, map[string]string{"X-Min-Epoch": "41"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got, _ := gotMin.Load().(string); got != "41" {
		t.Fatalf("backend saw X-Min-Epoch %q, want 41", got)
	}
	if got := rec.Header().Get("X-Replica-Epoch"); got != "41" {
		t.Fatalf("client saw X-Replica-Epoch %q, want 41", got)
	}
}

// TestBackendHeaderNamesChosenBackend: every read response names the
// backend the router settled on in X-NC-Backend — the server that
// answered on success, and the slot whose response was replayed when
// every slot failed.
func TestBackendHeaderNamesChosenBackend(t *testing.T) {
	reps, rt := testFleet(t, []string{"primary", "r1", "r2"}, nil)
	order := readOrder(rt)

	rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-NC-Backend"); got != order[0] {
		t.Fatalf("X-NC-Backend %q, want the owner %q", got, order[0])
	}

	for _, f := range reps {
		f.status.Store(http.StatusServiceUnavailable)
	}
	rec = doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want a replayed 503", rec.Code)
	}
	if rec.Header().Get("X-NC-Backend") == "" {
		t.Fatal("final 503 does not name the chosen backend")
	}
}

// TestRouterMetricsExposition: the router's own /metrics carries the
// per-backend served counters and try-latency histograms.
func TestRouterMetricsExposition(t *testing.T) {
	_, rt := testFleet(t, []string{"primary", "r1"}, nil)
	if rec := doRouter(rt, http.MethodPost, "/v1/search", searchBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}
	rec := doRouter(rt, http.MethodGet, "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"nc_router_served_total", "nc_router_try_seconds", "nc_router_hedges_total", "nc_router_exhausted_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("router scrape missing %s:\n%s", want, body)
		}
	}
}
