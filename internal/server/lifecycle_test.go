// Lifecycle tests: the four robustness pillars exercised end to end over
// real connections — graceful drain under SIGTERM, straggler cancellation
// past the drain deadline, panic isolation, load shedding, and stream
// client disconnects. All of them drive the server through the
// testRequestHook seam in engineEndpoint, which lets a test hold a request
// in flight (or blow it up) at a deterministic point.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
)

// reply is one HTTP exchange's outcome, channel-friendly for requests
// issued from goroutines.
type reply struct {
	status     int
	body       []byte
	retryAfter string
	err        error
}

// doPost posts a JSON body and drains the response.
func doPost(url, body string, hdr map[string]string) reply {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{status: resp.StatusCode, err: err}
	}
	return reply{status: resp.StatusCode, body: data, retryAfter: resp.Header.Get("Retry-After")}
}

// setHook installs a testRequestHook for the test's duration.
func setHook(t *testing.T, fn func(*http.Request)) {
	t.Helper()
	testRequestHook.Store(&fn)
	t.Cleanup(func() { testRequestHook.Store(nil) })
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const searchBody = `{"entities":["Angela Merkel","Barack Obama"]}`

// TestGracefulDrain: a real SIGTERM with a request in flight. The
// in-flight request completes with 200, /healthz flips to draining, new
// connections are refused, and Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The same ctx wiring ncserved uses: NotifyContext catches the signal
	// so the test binary survives it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	entered := make(chan struct{})
	release := make(chan struct{})
	setHook(t, func(r *http.Request) {
		if r.Header.Get("X-Test-Block") != "" {
			entered <- struct{}{}
			<-release
		}
	})

	base := "http://" + ln.Addr().String()
	got := make(chan reply, 1)
	go func() {
		got <- doPost(base+"/v1/search", searchBody, map[string]string{"X-Test-Block": "1"})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never reached the handler")
	}

	// Request in flight: deliver the signal.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "server to start draining", s.draining.Load)

	// /healthz answers draining so load balancers stop routing.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz while draining: %d %s", rec.Code, rec.Body.String())
	}

	// The listener closes: new connections are refused while the old
	// request still runs.
	waitUntil(t, 5*time.Second, "listener to close", func() bool {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})
	if s.inflight.Load() != 1 {
		t.Fatalf("in-flight gauge = %d during drain, want 1", s.inflight.Load())
	}

	// Let the in-flight request finish: it must complete normally.
	close(release)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request: status %d (%s)", r.status, r.body)
		}
		var sr searchResponse
		if err := json.Unmarshal(r.body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Degraded || len(sr.Characteristics) == 0 {
			t.Fatalf("in-flight request returned a damaged result: %s", r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("in-flight gauge = %d after drain", s.inflight.Load())
	}
}

// TestDrainDeadlineCancelsStragglers: a request that outlives
// DrainTimeout has its context cancelled — the server exits promptly
// instead of wedging on a stuck handler.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	cfg := quietCfg()
	cfg.DrainTimeout = 100 * time.Millisecond
	s := New(testEngine(notable.Options{}), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	entered := make(chan struct{})
	setHook(t, func(r *http.Request) {
		if r.Header.Get("X-Test-Hold") != "" {
			entered <- struct{}{}
			// A straggler: holds until the drain path cancels its ctx. The
			// timer is a leak guard, not an expected path.
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}
	})

	base := "http://" + ln.Addr().String()
	got := make(chan reply, 1)
	go func() {
		got <- doPost(base+"/v1/search", searchBody, map[string]string{"X-Test-Hold": "1"})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler never reached the handler")
	}

	start := time.Now()
	cancel()

	// The straggler's handler runs Do with a cancelled ctx and answers 499
	// (or the connection dies under the force-close fallback — both are
	// acceptable ends for a request that overstayed the drain deadline).
	select {
	case r := <-got:
		if r.err == nil && r.status != statusClientClosedRequest {
			t.Fatalf("straggler answered %d (%s), want %d or a dead connection",
				r.status, r.body, statusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggler request never resolved")
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after straggler cancellation")
	}
	// The whole drain — 100ms deadline plus response flush — stays far
	// under the straggler's own 10s hold.
	if d := time.Since(start); d > 4*time.Second {
		t.Fatalf("drain with straggler took %v", d)
	}
}

// TestPanicIsolation: a panicking handler answers 500 with the request id
// while a concurrent request completes untouched and the server keeps
// serving afterwards.
func TestPanicIsolation(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	setHook(t, func(r *http.Request) {
		switch {
		case r.Header.Get("X-Test-Panic") != "":
			panic("kaboom: injected test panic")
		case r.Header.Get("X-Test-Block") != "":
			entered <- struct{}{}
			<-release
		}
	})

	// Park a healthy request in flight.
	got := make(chan reply, 1)
	go func() {
		got <- doPost(ts.URL+"/v1/search", searchBody, map[string]string{"X-Test-Block": "1"})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never reached the handler")
	}

	// Blow up a second request next to it.
	pr := doPost(ts.URL+"/v1/search", searchBody, map[string]string{"X-Test-Panic": "1"})
	if pr.err != nil {
		t.Fatalf("panic request: %v", pr.err)
	}
	if pr.status != http.StatusInternalServerError {
		t.Fatalf("panic request: status %d (%s)", pr.status, pr.body)
	}
	var er errorResponse
	if err := json.Unmarshal(pr.body, &er); err != nil {
		t.Fatalf("panic response is not JSON: %q", pr.body)
	}
	if er.Error != "internal error" || er.RequestID == "" {
		t.Fatalf("panic response: %+v", er)
	}

	// The concurrent request never noticed.
	close(release)
	select {
	case r := <-got:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("concurrent request: status %d err %v", r.status, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent request never completed")
	}

	// And the process is still in business.
	if r := doPost(ts.URL+"/v1/search", searchBody, nil); r.err != nil || r.status != http.StatusOK {
		t.Fatalf("post-panic request: status %d err %v", r.status, r.err)
	}
}

// TestLoadShedding: with the gate saturated, excess requests get an
// immediate 503 + Retry-After while the admitted request is untouched;
// non-engine endpoints stay reachable; the slot frees on completion.
func TestLoadShedding(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxInFlight = 1
	s := New(testEngine(notable.Options{}), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	setHook(t, func(r *http.Request) {
		if r.Header.Get("X-Test-Block") != "" {
			entered <- struct{}{}
			<-release
		}
	})

	got := make(chan reply, 1)
	go func() {
		got <- doPost(ts.URL+"/v1/search", searchBody, map[string]string{"X-Test-Block": "1"})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never reached the handler")
	}

	// Saturated: the next request is shed fast, before its body is read.
	start := time.Now()
	shed := doPost(ts.URL+"/v1/search", searchBody, nil)
	elapsed := time.Since(start)
	if shed.err != nil || shed.status != http.StatusServiceUnavailable {
		t.Fatalf("shed request: status %d err %v", shed.status, shed.err)
	}
	if shed.retryAfter == "" {
		t.Fatalf("shed response carries no Retry-After")
	}
	if elapsed > time.Second {
		t.Fatalf("shedding took %v, want an immediate rejection", elapsed)
	}
	if n := s.met.shed.Value(); n == 0 {
		t.Fatal("shed counter did not move")
	}

	// Health and stats live outside the gate.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", hr.StatusCode)
	}

	// The admitted request completes as if the shedding never happened,
	// and its slot frees the gate.
	close(release)
	select {
	case r := <-got:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("admitted request: status %d err %v", r.status, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admitted request never completed")
	}
	if r := doPost(ts.URL+"/v1/search", searchBody, nil); r.err != nil || r.status != http.StatusOK {
		t.Fatalf("post-release request: status %d err %v", r.status, r.err)
	}
}

// TestStreamDisconnectCancels: a streaming client that drops mid-batch
// cancels the request context, the engine work winds down, and no
// goroutines leak.
func TestStreamDisconnectCancels(t *testing.T) {
	// Heavy Monte-Carlo engine: each query runs for seconds, so the
	// disconnect reliably lands while the first query is still computing.
	eng := testEngine(notable.Options{TestExactLimit: 1, TestSamples: 3_000_000, Parallelism: 2})
	s := New(eng, quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctxCh := make(chan context.Context, 1)
	setHook(t, func(r *http.Request) {
		select {
		case ctxCh <- r.Context():
		default:
		}
	})

	before := runtime.NumGoroutine()

	body := `{"queries":[
		{"entities":["Angela Merkel","Barack Obama"]},
		{"entities":["Vladimir Putin","Xi Jinping"]},
		{"entities":["Justin Trudeau","Shinzo Abe"]}]}`
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rctx context.Context
	select {
	case rctx = <-ctxCh:
	case <-time.After(5 * time.Second):
		t.Fatal("hook never saw the stream request")
	}

	// Drop the connection while the batch is mid-flight.
	resp.Body.Close()

	select {
	case <-rctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client disconnect did not cancel the request context")
	}

	// Everything spawned for the request — conn goroutine, DoStream
	// producer, comparison workers — winds down.
	waitUntil(t, 10*time.Second, "request to leave the in-flight gauge", func() bool {
		return s.inflight.Load() == 0
	})
	waitUntil(t, 10*time.Second, "goroutines to settle after disconnect", func() bool {
		return runtime.NumGoroutine() <= before+2
	})

	// The server is still healthy.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after disconnect: %d", hr.StatusCode)
	}
}
