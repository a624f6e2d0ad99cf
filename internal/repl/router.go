// Router: a failure-aware HTTP front for a replica fleet. Reads route
// by consistent hash of the canonicalized query key (cache affinity),
// fall back along the ring walk when the owner is down, and may fire
// one bounded hedge when the owner is merely slow. Writes go to the
// primary, only the primary, and are never replayed against a second
// backend — an ingest that may have been applied must not be applied
// twice. Health is active (periodic /healthz probes with a consecutive-
// failure window, so a catching-up follower is routed around just like
// a dead one) plus passive (a per-backend circuit breaker opened by
// consecutive request failures, so a probe-green-but-request-sick
// backend stops eating retries).
package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Routing defaults; all overridable per RouterConfig.
const (
	defaultProbeInterval   = time.Second
	defaultFailWindow      = 3
	defaultTryTimeout      = 5 * time.Second
	defaultHedgeAfter      = 150 * time.Millisecond
	defaultBreakerFails    = 3
	defaultBreakerCooldown = 5 * time.Second
	defaultMaxBodyBytes    = 1 << 20
	// maxProxyRespBytes caps a buffered (retryable) response copy; a
	// bigger response streams through on the first attempt only.
	maxProxyRespBytes = 64 << 20
)

// Backend names one replica in the fleet.
type Backend struct {
	Name string // ring identity; stable across restarts
	URL  string // base URL, e.g. "http://10.0.0.2:8080"
}

// RouterConfig wires a Router to its fleet.
type RouterConfig struct {
	// Backends is the read fleet (usually includes the primary).
	Backends []Backend
	// Primary is the Name of the backend that takes /v1/ingest. Writes
	// are refused with 503 when empty (a read-only fleet).
	Primary string
	// Client issues proxied requests. Per-try timeouts come from
	// TryTimeout; the client itself should not set one.
	Client *http.Client
	// VNodes is the ring's virtual-node count (0 = DefaultVirtualNodes).
	VNodes int
	// ProbeInterval is the active health-check period (default 1s);
	// FailWindow the consecutive probe failures that mark a backend down
	// (default 3 — one slow probe does not evict a replica).
	ProbeInterval time.Duration
	FailWindow    int
	// TryTimeout bounds each proxied read attempt (default 5s).
	TryTimeout time.Duration
	// HedgeAfter is how long the owner gets before a single hedged
	// /v1/search fires at the next ring slot (default 150ms; <0
	// disables hedging).
	HedgeAfter time.Duration
	// BreakerFails consecutive request failures open a backend's
	// circuit for BreakerCooldown (defaults 3 and 5s).
	BreakerFails    int
	BreakerCooldown time.Duration
	// MaxBodyBytes caps buffered request bodies (default 1MiB).
	MaxBodyBytes int64
	// Logf receives routing decisions and failures. Defaults to a no-op.
	Logf func(format string, args ...any)
}

// Router proxies the serving API across the fleet. Create with
// NewRouter, start probes with Start, serve Handler.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	by      map[string]*backendState
	order   []*backendState // constructor order, for probes and /healthz
	primary *backendState   // nil when cfg.Primary == ""

	// met is the router's own registry behind GET /metrics and GET
	// /statsz: per-backend try latency (whose _count is the per-backend
	// try total), serves and health gauges, plus hedge and
	// all-replicas-failed counters. Series are registered at NewRouter;
	// the proxy path only touches held pointers.
	met       *obs.Registry
	hedges    *obs.Counter
	exhausted *obs.Counter
}

// backendState is one replica's health ledger.
type backendState struct {
	name, url    string
	healthy      atomic.Bool
	probeFails   atomic.Int32
	reqFails     atomic.Int32
	breakerUntil atomic.Int64 // unix nanos; 0 = closed
	epoch        atomic.Uint64
	served       *obs.Counter   // final responses sent from this backend
	tries        *obs.Histogram // per-try proxy latency, success or not
}

// available reports whether routing should offer this backend a
// request: probe-healthy and breaker closed (or cooled off — expiry is
// the implicit half-open trial).
func (b *backendState) available() bool {
	return b.healthy.Load() && time.Now().UnixNano() >= b.breakerUntil.Load()
}

// NewRouter validates cfg, applies defaults, and builds the ring.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("repl: RouterConfig.Backends is empty")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.FailWindow <= 0 {
		cfg.FailWindow = defaultFailWindow
	}
	if cfg.TryTimeout <= 0 {
		cfg.TryTimeout = defaultTryTimeout
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = defaultHedgeAfter
	}
	if cfg.BreakerFails <= 0 {
		cfg.BreakerFails = defaultBreakerFails
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = defaultBreakerCooldown
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	rt := &Router{cfg: cfg, by: make(map[string]*backendState, len(cfg.Backends)), met: obs.NewRegistry()}
	rt.hedges = rt.met.NewCounter("nc_router_hedges_total", "Hedged read attempts fired.")
	rt.exhausted = rt.met.NewCounter("nc_router_exhausted_total", "Reads for which every candidate backend failed.")
	names := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b.Name == "" || b.URL == "" {
			return nil, fmt.Errorf("repl: backend needs both Name and URL, got %+v", b)
		}
		if _, dup := rt.by[b.Name]; dup {
			return nil, fmt.Errorf("repl: duplicate backend name %q", b.Name)
		}
		bs := &backendState{
			name: b.Name, url: trimSlash(b.URL),
			served: rt.met.NewCounter("nc_router_served_total",
				"Final responses sent to clients, by originating backend.", "backend", b.Name),
			tries: rt.met.NewHistogram("nc_router_try_seconds",
				"Per-try proxy latency in seconds, by backend (the _count is the try total).", "backend", b.Name),
		}
		// Optimistic until the first probe round: a cold router must not
		// refuse the whole fleet for a probe interval.
		bs.healthy.Store(true)
		rt.registerBackend(bs, b.Name == cfg.Primary)
		rt.by[b.Name] = bs
		rt.order = append(rt.order, bs)
		names = append(names, b.Name)
	}
	if cfg.Primary != "" {
		p, ok := rt.by[cfg.Primary]
		if !ok {
			return nil, fmt.Errorf("repl: Primary %q is not among the backends", cfg.Primary)
		}
		rt.primary = p
	}
	rt.ring = NewRing(names, cfg.VNodes)
	return rt, nil
}

// Start launches the probe loop; it stops when ctx is done.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		// Probe immediately, then on the interval: the optimistic initial
		// state should survive at most one round against a dead backend.
		rt.probeAll(ctx)
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.probeAll(ctx)
			}
		}
	}()
}

// probeAll checks every backend's /healthz concurrently and applies the
// failure window. A replica reporting not-ready (503 while catching up)
// counts as down for routing even though its process is alive — the
// liveness/readiness split on the serving side is what makes this probe
// honest.
func (rt *Router) probeAll(ctx context.Context) {
	done := make(chan struct{}, len(rt.order))
	for _, b := range rt.order {
		b := b
		go func() {
			defer func() { done <- struct{}{} }()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeInterval)
			defer cancel()
			ok, epoch := rt.probeOne(pctx, b)
			if ok {
				b.probeFails.Store(0)
				if epoch > 0 {
					b.epoch.Store(epoch)
				}
				if !b.healthy.Load() {
					rt.cfg.Logf("router: backend %s healthy (epoch %d)", b.name, epoch)
				}
				b.healthy.Store(true)
				return
			}
			if int(b.probeFails.Add(1)) >= rt.cfg.FailWindow && b.healthy.Load() {
				b.healthy.Store(false)
				rt.cfg.Logf("router: backend %s down after %d failed probes", b.name, rt.cfg.FailWindow)
			}
		}()
	}
	for range rt.order {
		<-done
	}
}

func (rt *Router) probeOne(ctx context.Context, b *backendState) (ok bool, epoch uint64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false, 0
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body)
	return resp.StatusCode == http.StatusOK, body.Epoch
}

// Handler returns the router's HTTP surface: the serving read API plus
// ingest forwarding, and the router's own /healthz and /statsz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) { rt.handleRead(w, r, true) })
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) { rt.handleRead(w, r, false) })
	mux.HandleFunc("/v1/stream", func(w http.ResponseWriter, r *http.Request) { rt.handleRead(w, r, false) })
	mux.HandleFunc("/v1/ingest", rt.handleIngest)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/statsz", rt.handleStatsz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// routerError is the router's own error envelope (same shape as the
// serving layer's, so clients parse one format).
type routerError struct {
	Error string `json:"error"`
}

func writeRouterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleIngest forwards a write to the primary — exactly once. A failed
// or timed-out ingest is NEVER retried against another backend (only
// the primary accepts writes) and never replayed against the primary by
// the router (the attempt may have been applied and fsync'd before the
// connection died; replaying would double-apply). The client owns write
// retries because only the client knows whether its batch is
// idempotent.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeRouterJSON(w, http.StatusMethodNotAllowed, routerError{Error: "POST only"})
		return
	}
	if rt.primary == nil {
		writeRouterJSON(w, http.StatusServiceUnavailable, routerError{Error: "no primary configured: read-only fleet"})
		return
	}
	body, err := readBody(w, r, rt.cfg.MaxBodyBytes)
	if err != nil {
		writeRouterJSON(w, http.StatusRequestEntityTooLarge, routerError{Error: err.Error()})
		return
	}
	// No TryTimeout here: ingest latency includes fsync and is bounded
	// by the client's own deadline, which proxies through ctx.
	resp, err := rt.forward(r.Context(), rt.primary, r, body)
	if err != nil {
		rt.recordFailure(rt.primary)
		writeRouterJSON(w, http.StatusBadGateway, routerError{Error: "primary unreachable: " + err.Error()})
		return
	}
	rt.recordOutcome(rt.primary, resp.status)
	resp.writeTo(w)
}

// handleRead proxies a read across the fleet: canonical-key ring order,
// skip unavailable backends, retry replica-level failures (network
// errors, 5xx, 503 backpressure) on the next slot, and — for /v1/search
// when enabled — fire one hedged attempt at the next slot when the
// owner is slow. 4xx and 2xx are final from whichever backend produced
// them.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request, hedgeable bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeRouterJSON(w, http.StatusMethodNotAllowed, routerError{Error: "POST only"})
		return
	}
	body, err := readBody(w, r, rt.cfg.MaxBodyBytes)
	if err != nil {
		writeRouterJSON(w, http.StatusRequestEntityTooLarge, routerError{Error: err.Error()})
		return
	}
	key := requestKey(r.URL.Path, body)
	candidates := rt.candidates(key)
	if len(candidates) == 0 {
		writeRouterJSON(w, http.StatusServiceUnavailable, routerError{Error: "no backends configured"})
		return
	}
	hedge := hedgeable && rt.cfg.HedgeAfter > 0 && len(candidates) > 1

	type attempt struct {
		b    *backendState
		resp *bufferedResp
		err  error
	}
	results := make(chan attempt, len(candidates))
	launch := func(b *backendState) {
		go func() {
			tctx, cancel := context.WithTimeout(r.Context(), rt.cfg.TryTimeout)
			defer cancel()
			resp, err := rt.forward(tctx, b, r, body)
			results <- attempt{b: b, resp: resp, err: err}
		}()
	}

	next := 0
	launch(candidates[next])
	next++
	outstanding := 1
	hedged := false
	var hedgeTimer <-chan time.Time
	if hedge {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var lastResp *bufferedResp
	var lastErr error
	for outstanding > 0 {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if !hedged && next < len(candidates) {
				hedged = true
				rt.hedges.Inc()
				rt.cfg.Logf("router: hedging %s after %v to %s", r.URL.Path, rt.cfg.HedgeAfter, candidates[next].name)
				launch(candidates[next])
				next++
				outstanding++
			}
		case a := <-results:
			outstanding--
			if a.err == nil && !retryableStatus(a.resp.status) {
				rt.recordOutcome(a.b, a.resp.status)
				a.b.served.Inc()
				a.resp.writeTo(w)
				return
			}
			// Replica-level failure: charge the breaker and move along the
			// ring. Keep the best evidence for the client in case every
			// slot fails.
			if a.err != nil {
				rt.recordFailure(a.b)
				lastErr = a.err
				rt.cfg.Logf("router: %s on %s failed: %v", r.URL.Path, a.b.name, a.err)
			} else {
				rt.recordFailure(a.b)
				lastResp = a.resp
				rt.cfg.Logf("router: %s on %s answered %d, retrying elsewhere", r.URL.Path, a.b.name, a.resp.status)
			}
			if next < len(candidates) {
				launch(candidates[next])
				next++
				outstanding++
			}
		case <-r.Context().Done():
			return
		}
	}
	// Every candidate failed. A buffered replica response (e.g. a 503
	// with its honest Retry-After) beats a synthesized 502.
	rt.exhausted.Inc()
	if lastResp != nil {
		lastResp.writeTo(w)
		return
	}
	// No backend produced bytes; name the last one tried so the client's
	// error report still points somewhere.
	if next > 0 {
		w.Header().Set("X-NC-Backend", candidates[next-1].name)
	}
	msg := "all replicas failed"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	writeRouterJSON(w, http.StatusBadGateway, routerError{Error: msg})
}

// candidates returns ring order for key, available backends first (in
// ring order), then — only when nothing is available — the unavailable
// ones as a last gasp: a request against a suspect fleet beats a
// guaranteed 503.
func (rt *Router) candidates(key string) []*backendState {
	order := rt.ring.Order(key)
	avail := make([]*backendState, 0, len(order))
	rest := make([]*backendState, 0, len(order))
	for _, name := range order {
		b := rt.by[name]
		if b.available() {
			avail = append(avail, b)
		} else {
			rest = append(rest, b)
		}
	}
	if len(avail) > 0 {
		return avail
	}
	return rest
}

// retryableStatus: statuses worth spending another replica on. 503 is
// the serving layer's backpressure (overload, booting, min-epoch
// timeout) and the whole point of fallback slots; 5xx means the replica
// malfunctioned; everything else — including 4xx — is a property of the
// request and would fail identically anywhere.
func retryableStatus(status int) bool {
	return status == http.StatusServiceUnavailable || status == http.StatusBadGateway ||
		status == http.StatusInternalServerError || status == http.StatusGatewayTimeout
}

// recordFailure charges one request failure; BreakerFails consecutive
// open the breaker for BreakerCooldown.
func (rt *Router) recordFailure(b *backendState) {
	if int(b.reqFails.Add(1)) >= rt.cfg.BreakerFails {
		b.reqFails.Store(0)
		b.breakerUntil.Store(time.Now().Add(rt.cfg.BreakerCooldown).UnixNano())
		rt.cfg.Logf("router: circuit open on %s for %v", b.name, rt.cfg.BreakerCooldown)
	}
}

// recordOutcome resets the failure run on any response the backend
// produced sanely (a 4xx is the backend working fine on a bad request).
func (rt *Router) recordOutcome(b *backendState, status int) {
	if !retryableStatus(status) {
		b.reqFails.Store(0)
		b.breakerUntil.Store(0)
	}
}

// forward proxies one attempt: buffered body in, buffered response out,
// passing through the headers that matter (X-Min-Epoch for
// read-your-writes, X-Request-ID for tracing, Content-Type).
func (rt *Router) forward(ctx context.Context, b *backendState, orig *http.Request, body []byte) (*bufferedResp, error) {
	start := time.Now()
	defer func() { b.tries.Observe(time.Since(start)) }()
	req, err := http.NewRequestWithContext(ctx, orig.Method, b.url+orig.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "X-Min-Epoch", "X-Request-ID", "Accept"} {
		if v := orig.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyRespBytes))
	if err != nil {
		return nil, fmt.Errorf("reading %s response: %w", b.name, err)
	}
	br := &bufferedResp{status: resp.StatusCode, body: rb, header: make(http.Header, 4)}
	for _, h := range []string{"Content-Type", "Retry-After", "X-Replica-Epoch", "X-Request-ID"} {
		if v := resp.Header.Get(h); v != "" {
			br.header.Set(h, v)
		}
	}
	br.header.Set("X-Served-By", b.name)
	// X-NC-Backend names the backend that produced this response; it
	// rides along whether the response wins the race (success) or is
	// replayed as the best evidence after every candidate failed, so a
	// client always learns which replica answered — or last refused.
	br.header.Set("X-NC-Backend", b.name)
	return br, nil
}

// bufferedResp is a fully-read upstream response, replayable to the
// client after the retry/hedge race settles.
type bufferedResp struct {
	status int
	header http.Header
	body   []byte
}

func (br *bufferedResp) writeTo(w http.ResponseWriter) {
	for k, vs := range br.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(br.status)
	_, _ = w.Write(br.body)
}

// handleHealthz: the router is healthy while at least one backend is
// available to route to.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, b := range rt.order {
		if b.available() {
			up++
		}
	}
	status := http.StatusOK
	if up == 0 {
		status = http.StatusServiceUnavailable
	}
	writeRouterJSON(w, status, map[string]any{
		"status":   map[bool]string{true: "ok", false: "no backends available"}[up > 0],
		"backends": len(rt.order),
		"up":       up,
	})
}

// registerBackend adds b's health ledger to the router registry as
// scrape-time gauges; the probe and proxy paths keep writing only their
// atomics.
func (rt *Router) registerBackend(b *backendState, primary bool) {
	rt.met.NewGaugeFunc("nc_router_backend_healthy", "1 while the backend passes its /healthz probes.",
		func() float64 { return obs.Bool(b.healthy.Load()) }, "backend", b.name)
	rt.met.NewGaugeFunc("nc_router_backend_breaker_open", "1 while the backend's circuit breaker is open.",
		func() float64 { return obs.Bool(time.Now().UnixNano() < b.breakerUntil.Load()) }, "backend", b.name)
	rt.met.NewGaugeFunc("nc_router_backend_probe_fails", "Consecutive failed /healthz probes.",
		func() float64 { return float64(b.probeFails.Load()) }, "backend", b.name)
	rt.met.NewGaugeFunc("nc_router_backend_epoch", "Graph epoch the backend last reported on /healthz.",
		func() float64 { return float64(b.epoch.Load()) }, "backend", b.name)
	rt.met.NewGaugeFunc("nc_router_backend_primary", "1 for the backend that takes /v1/ingest.",
		func() float64 { return obs.Bool(primary) }, "backend", b.name)
}

// handleStatsz is GET /statsz: the JSON rendering of the series GET
// /metrics exposes.
func (rt *Router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeRouterJSON(w, http.StatusOK, obs.Collect(rt.met))
}

// Metrics returns the router's registry (per-backend health and try
// latency, hedge/exhausted counters) for embedding or tests; GET
// /metrics exposes it in Prometheus text form, GET /statsz as JSON.
func (rt *Router) Metrics() *obs.Registry { return rt.met }

// handleMetrics is GET /metrics for the router process itself.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeRouterJSON(w, http.StatusMethodNotAllowed, routerError{Error: "GET only"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_ = rt.met.WritePrometheus(w)
}

// requestKey derives the routing key for a read: the canonicalized
// query when the body parses (batch/stream requests key on their first
// query — one slot per batch keeps its cache hits together), the raw
// body otherwise (the backend will 400 it; where it lands is moot).
func requestKey(path string, body []byte) string {
	var env struct {
		Entities    []string `json:"entities"`
		Nodes       []uint32 `json:"nodes"`
		Selector    string   `json:"selector"`
		ContextSize int      `json:"context_size"`
		Walks       int      `json:"walks"`
		Damping     float64  `json:"damping"`
		Queries     []struct {
			Entities    []string `json:"entities"`
			Nodes       []uint32 `json:"nodes"`
			Selector    string   `json:"selector"`
			ContextSize int      `json:"context_size"`
			Walks       int      `json:"walks"`
			Damping     float64  `json:"damping"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return "raw:" + string(body)
	}
	if len(env.Queries) > 0 {
		q := env.Queries[0]
		return CanonicalKey(q.Entities, q.Nodes, q.Selector, q.ContextSize, q.Walks, q.Damping)
	}
	return CanonicalKey(env.Entities, env.Nodes, env.Selector, env.ContextSize, env.Walks, env.Damping)
}

// readBody slurps the (size-capped) request body for replayable
// forwarding.
func readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, max)
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return b, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}
