package server

// Tests for the replication-era serving surface: liveness vs readiness,
// pending (engine-less) boot, the /v1/repl endpoints and their status
// contract, X-Min-Epoch read-your-writes, the read-only follower
// stance, and the honest jittered Retry-After.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/wal"
)

// durableTestEngine builds a WAL-backed engine over dir so the repl
// endpoints have something to export.
func durableTestEngine(t *testing.T, dir string) *notable.Engine {
	t.Helper()
	eng, _, err := notable.NewDurableEngine(testGraph(), notable.Options{
		ContextSize: 6, Walks: 5000, Seed: 3,
	}, notable.Durability{WALDir: dir, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// applyN applies n distinct effective batches starting at workload
// index start (indices must not repeat — a repeated add is a no-op and
// publishes no epoch), returning the final epoch.
func applyN(t *testing.T, eng *notable.Engine, start, n int) uint64 {
	t.Helper()
	var ep uint64
	for i := start; i < start+n; i++ {
		var err error
		ep, err = eng.ApplyTriples(context.Background(), []notable.Triple{
			{S: "Angela Merkel", P: "visited", O: fmt.Sprintf("Country-%d", i)},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return ep
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s body: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestLivenessVsReadiness: /livez answers 200 through every lifecycle
// state while /healthz tracks fitness to serve — booting 503, ready
// 200, explicit not-ready 503 with epochs.
func TestLivenessVsReadiness(t *testing.T) {
	s := NewPending(quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getJSON(t, ts, "/livez"); code != http.StatusOK {
		t.Fatalf("livez while booting: %d", code)
	}
	code, body := getJSON(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "booting" {
		t.Fatalf("healthz while booting: %d %v", code, body)
	}

	// Engine set but explicitly behind its floor: still not ready, with
	// progress epochs for the operator.
	s.SetEngine(testEngine(notable.Options{}))
	s.SetReadiness(Readiness{Ready: false, Status: "catching-up", Epoch: 3, Target: 9})
	code, body = getJSON(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "catching-up" ||
		body["epoch"] != float64(3) || body["target"] != float64(9) {
		t.Fatalf("healthz while catching up: %d %v", code, body)
	}
	if code, _ := getJSON(t, ts, "/livez"); code != http.StatusOK {
		t.Fatalf("livez while catching up: %d", code)
	}

	s.SetReadiness(Readiness{Ready: true})
	code, body = getJSON(t, ts, "/healthz")
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("healthz when ready: %d %v", code, body)
	}
}

// TestPendingEngineEndpoints: engine traffic against a booting server
// sheds with 503 + Retry-After instead of hanging or crashing, and
// /statsz still serves process gauges with nc_server_booting at 1.
func TestPendingEngineEndpoints(t *testing.T) {
	s := NewPending(quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search while booting: %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on booting 503")
	}
	if st := getStatsz(t, ts).Series; st["nc_server_booting"] != 1 || st["nc_server_ready"] != 0 {
		t.Fatalf("statsz while booting: %v", st)
	}
}

// TestReadOnlyIngest: a follower-stance server refuses ingest with 403
// (a permanent property, not a retryable 503 — the client must go to
// the primary).
func TestReadOnlyIngest(t *testing.T) {
	cfg := quietCfg()
	cfg.ReadOnly = true
	s := New(testEngine(notable.Options{}), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
		"adds": []map[string]string{{"s": "a", "p": "b", "o": "c"}},
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("ingest on read-only replica: %d %s", resp.StatusCode, data)
	}
	// Reads still flow.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search on read-only replica: %d %s", resp.StatusCode, data)
	}
}

// TestMinEpoch: the read-your-writes gate — immediate pass at or above
// the floor, bounded wait for a lagging engine, honest 503 with
// Retry-After and X-Replica-Epoch on timeout, 400 on garbage — and the
// wait comes before name resolution, so a request for the entity the
// awaited epoch creates is answered, not refused.
func TestMinEpoch(t *testing.T) {
	cfg := quietCfg()
	cfg.MinEpochWait = 300 * time.Millisecond
	cfg.MaxInFlight = 16 // the wait-then-pass case parks five requests at once
	eng := testEngine(notable.Options{})
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(minEpoch string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search",
			strings.NewReader(`{"entities":["Angela Merkel","Barack Obama"]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if minEpoch != "" {
			req.Header.Set("X-Min-Epoch", minEpoch)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	if resp, data := post("0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("min-epoch 0 at epoch 0: %d %s", resp.StatusCode, data)
	}
	if resp, data := post("bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed min-epoch: %d %s", resp.StatusCode, data)
	}

	// Timeout: the engine never reaches epoch 99 — a bounded wait, then
	// 503 with the replica's actual epoch so the router can decide.
	start := time.Now()
	resp, data := post("99")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unreachable min-epoch: %d %s", resp.StatusCode, data)
	}
	if d := time.Since(start); d < cfg.MinEpochWait {
		t.Fatalf("503 came after %v, before the %v wait elapsed", d, cfg.MinEpochWait)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Replica-Epoch") != "0" {
		t.Fatalf("timeout 503 headers: Retry-After=%q X-Replica-Epoch=%q",
			resp.Header.Get("Retry-After"), resp.Header.Get("X-Replica-Epoch"))
	}

	// Wait-then-pass: requests admitted at epoch 0 with floor 1 park in the
	// wait, the engine catches up mid-wait, and each completes with the
	// epoch floor in its response. The batch they wait for creates
	// "Atlantis", so a request naming it — or sending its node id, out of
	// range until the bump — can only be resolved after the wait: every
	// handler must await first and resolve second.
	atlantis := eng.Graph().NumNodes() // the id the batch interns
	waiters := []struct{ path, body string }{
		{"/v1/search", `{"entities":["Angela Merkel","Barack Obama"]}`},
		{"/v1/search", `{"entities":["Angela Merkel","Atlantis"]}`},
		{"/v1/search", fmt.Sprintf(`{"nodes":[0,%d]}`, atlantis)},
		{"/v1/batch", `{"queries":[{"entities":["Barack Obama","Atlantis"]}]}`},
		{"/v1/stream", fmt.Sprintf(`{"queries":[{"nodes":[0,%d]},{"entities":["atlantis"]}]}`, atlantis)},
	}
	admitted := make(chan struct{}, len(waiters))
	setHook(t, func(*http.Request) { admitted <- struct{}{} })
	go func() {
		for range waiters {
			<-admitted // every waiter is inside the server, at epoch 0
		}
		time.Sleep(50 * time.Millisecond)
		_, _ = eng.ApplyTriples(context.Background(), []notable.Triple{
			{S: "Angela Merkel", P: "visited", O: "Atlantis"},
		}, nil)
	}()
	replies := make([]chan reply, len(waiters))
	for i, w := range waiters {
		replies[i] = make(chan reply, 1)
		go func() { replies[i] <- doPost(ts.URL+w.path, w.body, map[string]string{"X-Min-Epoch": "1"}) }()
	}
	for i, w := range waiters {
		r := <-replies[i]
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("%s %s with min-epoch 1 after catch-up: %d %s %v", w.path, w.body, r.status, r.body, r.err)
		}
		// Every response carries the epoch floor; a stream carries it per line.
		var floors []uint64
		if w.path == "/v1/stream" {
			for _, line := range strings.Split(strings.TrimSpace(string(r.body)), "\n") {
				var o streamOutcome
				if err := json.Unmarshal([]byte(line), &o); err != nil || o.Error != "" || o.Result == nil {
					t.Fatalf("%s %s: bad stream line %q (%v)", w.path, w.body, line, err)
				}
				floors = append(floors, o.Result.Epoch)
			}
			if len(floors) != 2 {
				t.Fatalf("%s %s: %d stream lines, want 2", w.path, w.body, len(floors))
			}
		} else { // searchResponse and batchResponse share the field
			var sr struct {
				Epoch uint64 `json:"epoch"`
			}
			if err := json.Unmarshal(r.body, &sr); err != nil {
				t.Fatal(err)
			}
			floors = append(floors, sr.Epoch)
		}
		for _, floor := range floors {
			if floor < 1 {
				t.Fatalf("%s %s: response epoch %d below the requested floor 1", w.path, w.body, floor)
			}
		}
	}
}

// TestReplEndpointsContract: snapshot and stream against a durable
// primary, plus every error status a follower keys off — 405 on POST,
// 409 ahead-of-primary, 410 truncated, 501 not-a-primary.
func TestReplEndpointsContract(t *testing.T) {
	eng := durableTestEngine(t, t.TempDir())
	head := applyN(t, eng, 0, 3)
	s := New(eng, quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Snapshot: octet-stream with its epoch, decodable into a graph.
	resp, err := ts.Client().Get(ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snapEpoch, err := strconv.ParseUint(resp.Header.Get("X-Repl-Epoch"), 10, 64)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d, epoch header err %v", resp.StatusCode, err)
	}
	if _, err := notable.ReadSnapshot(resp.Body); err != nil {
		t.Fatalf("snapshot body does not decode: %v", err)
	}
	resp.Body.Close()
	if snapEpoch > head {
		t.Fatalf("snapshot epoch %d past head %d", snapEpoch, head)
	}

	// Stream from 0: the full tail, ending with the durable head.
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(sctx, http.MethodGet, ts.URL+"/v1/repl/stream?from=0", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream from 0: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Repl-Epoch"); got != strconv.FormatUint(head, 10) {
		t.Fatalf("stream durable header %q, want %d", got, head)
	}
	fr := wal.NewFrameReader(resp.Body)
	recs := make(chan wal.Record, 8)
	go func() {
		for {
			rec, err := fr.Next()
			if err != nil {
				close(recs)
				return
			}
			recs <- rec
		}
	}()
	for want := uint64(1); want <= head; want++ {
		select {
		case rec := <-recs:
			if rec.Epoch != want {
				t.Fatalf("stream record epoch %d, want %d", rec.Epoch, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream never delivered epoch %d", want)
		}
	}
	// Live tail: an ingest published after connect shows up on the same
	// stream.
	applyN(t, eng, 3, 1)
	select {
	case rec := <-recs:
		if rec.Epoch != head+1 {
			t.Fatalf("live stream record epoch %d, want %d", rec.Epoch, head+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream never delivered the live record")
	}
	cancel()

	// Status contract.
	if resp, err := ts.Client().Post(ts.URL+"/v1/repl/stream", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on stream: %d", resp.StatusCode)
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/repl/stream?from=999"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusConflict {
		t.Fatalf("from past durable: %d, want 409", resp.StatusCode)
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/repl/stream?from=nope"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage from: %d, want 400", resp.StatusCode)
	}

	// Truncation: two checkpoints push the retention floor past epoch 1.
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyN(t, eng, 4, 1)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/repl/stream?from=1"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusGone {
		t.Fatalf("truncated position: %d, want 410", resp.StatusCode)
	}

	// Not a primary: an in-memory engine has nothing to ship.
	s2 := New(testEngine(notable.Options{}), quietCfg())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if resp, err := ts2.Client().Get(ts2.URL + "/v1/repl/snapshot"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("snapshot on non-durable engine: %d, want 501", resp.StatusCode)
	}
}

// TestDrainEndsReplStream: a live stream terminates promptly when the
// server drains, so Shutdown is not held to its deadline by followers.
func TestDrainEndsReplStream(t *testing.T) {
	eng := durableTestEngine(t, t.TempDir())
	applyN(t, eng, 0, 1)
	cfg := quietCfg()
	cfg.DrainTimeout = 3 * time.Second
	s := New(eng, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/repl/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	// Begin the drain while the stream idles between heartbeats.
	start := time.Now()
	cancel()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && !strings.Contains(err.Error(), "EOF") {
		t.Logf("stream body ended with: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(cfg.DrainTimeout + 2*time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if d := time.Since(start); d > cfg.DrainTimeout {
		t.Fatalf("drain with a live stream took %v (deadline %v)", d, cfg.DrainTimeout)
	}
}

// TestRetryAfterJitter: the jittered seconds stay within ±20% of the
// base (rounded up) and never go below 1.
func TestRetryAfterJitter(t *testing.T) {
	for i := 0; i < 200; i++ {
		got, err := strconv.Atoi(retryAfterSeconds(10 * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if got < 8 || got > 12 {
			t.Fatalf("retryAfterSeconds(10s) = %d, want [8,12]", got)
		}
	}
	for i := 0; i < 50; i++ {
		if got, _ := strconv.Atoi(retryAfterSeconds(100 * time.Millisecond)); got < 1 {
			t.Fatalf("retryAfterSeconds(100ms) = %d, want ≥ 1", got)
		}
	}
}
