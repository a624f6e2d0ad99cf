// Package server is the hardened HTTP serving layer over a
// notable.Engine: the process boundary where the library's request-scoped
// guarantees (PR 5's ctx cancellation through every pipeline layer) meet
// slow clients, deploy-time restarts, traffic spikes, and buggy handlers.
// Robustness is the package's contract, not a feature flag:
//
//   - Graceful drain. Run serves until its ctx is cancelled (the caller
//     wires SIGTERM/SIGINT), then stops accepting connections, flips
//     /healthz to draining (load balancers stop routing), and lets
//     in-flight requests finish under Config.DrainTimeout. Stragglers past
//     the deadline are cancelled through their request ctx — the engine
//     aborts within one PageRank sweep or label test, and because
//     cancellation never stores partial vectors or records, the process
//     exits with caches uncorrupted (not that it matters then) and, more
//     importantly, without wedging on a stuck request.
//
//   - Deadline-degraded mode. Every request runs under a per-request
//     timeout propagated into ctx. A search that cannot finish in time
//     returns HTTP 200 with the labels tested so far and "degraded": true
//     (plus tested/total counts) instead of a 504 — an interactive client
//     gets a usable prefix of the report rather than nothing. Clients opt
//     out with "degrade": false to get the 504.
//
//   - Panic isolation. A panicking handler is recovered, logged with its
//     stack, and answered with a 500; concurrent requests and the process
//     are unaffected.
//
//   - Load shedding. An admission gate sized off GOMAXPROCS fast-fails
//     with 503 + Retry-After once Config.MaxInFlight
//     requests are in flight, so overload degrades throughput instead of
//     latency: admitted requests keep their p50, excess ones get an
//     immediate, cheap answer.
//
// Endpoints: POST /v1/search (one query), POST /v1/batch (many, one
// deduplicated pass), POST /v1/stream (NDJSON, one line per outcome in
// completion order), POST /v1/ingest (live triple mutations: the batch
// publishes a new graph epoch without a restart, while in-flight
// searches finish on the epoch they pinned; refused with 503 +
// Retry-After once draining — a node about to exit takes no new writes),
// GET /healthz (flips 503 while draining), GET /metrics and GET /statsz
// (one set of series — request counters, stage latencies, cache layers,
// in-flight gauge, graph epoch and overlay/compaction
// counters, WAL/checkpoint gauges on durable engines — as Prometheus text
// and as JSON), and net/http/pprof under /debug/pprof/ when enabled.
package server

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
)

// Config tunes the serving layer. The zero value serves on :8080 with
// production-shaped defaults; see the field comments for each.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// DrainTimeout bounds graceful shutdown: how long in-flight requests
	// may keep running after the listener closes before their contexts are
	// cancelled (default 10s).
	DrainTimeout time.Duration
	// RequestTimeout is the per-request deadline applied when the request
	// body carries no timeout_ms (default 30s).
	RequestTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 60s).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies; larger ones get 413
	// (default 1 MiB).
	MaxBodyBytes int64
	// MaxInFlight is the admission gate: engine requests beyond it are
	// shed with 503 + Retry-After. Default 4× GOMAXPROCS — enough
	// concurrency to keep every core busy through decode/encode gaps,
	// small enough that queueing shows up as fast 503s instead of latency.
	MaxInFlight int
	// RetryAfter is the Retry-After hint on shed responses (default 1s).
	RetryAfter time.Duration
	// ReadOnly refuses POST /v1/ingest with 403: the stance of a
	// replication follower, whose graph is written only by the primary's
	// record stream. Reads are unaffected.
	ReadOnly bool
	// MinEpochWait bounds how long a read carrying X-Min-Epoch blocks for
	// the engine to catch up before answering 503 + Retry-After (default
	// 500ms). The wait never exceeds the request's own deadline.
	MinEpochWait time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logf receives structured-ish log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MinEpochWait <= 0 {
		c.MinEpochWait = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server serves one engine over HTTP. Construct with New (engine in
// hand) or NewPending (engine still booting — WAL replay, snapshot
// download); start with Run (or Serve, for an existing listener).
type Server struct {
	// eng is nil while the process is still building its engine
	// (NewPending): the server answers liveness and shapes a readiness
	// "no" instead of refusing connections, so orchestrators can tell a
	// long WAL replay from a dead process. Engine endpoints 503 until
	// SetEngine arms it.
	eng atomic.Pointer[notable.Engine]
	cfg Config

	http       *http.Server
	baseCtx    context.Context
	cancelBase context.CancelFunc

	draining atomic.Bool
	// drainCh is closed the moment drain begins. Long-lived streams (the
	// replication tail) select on it and terminate immediately — they
	// would otherwise hold http.Server.Shutdown at the deadline every
	// drain.
	drainCh    chan struct{}
	drainStart atomic.Int64 // unix nanos; 0 until draining
	inflight   atomic.Int64
	admit      chan struct{}

	// readiness is the serving-fitness signal behind /healthz (nil means
	// "ready whenever an engine is set"): boot and follower lifecycles
	// publish their catch-up state here via SetReadiness.
	readiness atomic.Pointer[Readiness]

	reqSeq   atomic.Uint64
	reqNonce string
	start    time.Time

	// met and accessLog are the serving layer's observability state:
	// per-endpoint counters/histograms behind GET /metrics, and the ring
	// of recent requests behind GET /v1/logz. Both are built once in
	// NewPending; the per-request path only touches preregistered series.
	met       *serverMetrics
	accessLog *obs.AccessLog
}

// Readiness is the serving-fitness state behind /healthz: distinct from
// liveness (/livez), which only says the process is running. A follower
// mid-catch-up or a booting durable engine is alive but not ready.
type Readiness struct {
	// Ready reports fitness to serve reads at a current epoch.
	Ready bool
	// Status is a short human-readable state ("catching-up", "resyncing",
	// "booting"); "" renders as "ok" or "unready".
	Status string
	// Epoch is the engine's current epoch; Target is the epoch it must
	// reach to be ready (0 when unknown or not applicable).
	Epoch, Target uint64
}

// New builds a Server over eng. The engine must already hold its graph;
// the server adds no per-request state beyond the gauges above.
func New(eng *notable.Engine, cfg Config) *Server {
	s := NewPending(cfg)
	s.eng.Store(eng)
	return s
}

// NewPending builds a Server with no engine yet: every route is mounted,
// liveness answers, readiness says "booting", and engine endpoints 503
// until SetEngine. This is how ncserved listens during a long WAL replay
// or follower bootstrap instead of leaving connection refused — the
// difference between "starting up" and "dead" from outside.
func NewPending(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    baseCtx,
		cancelBase: cancel,
		drainCh:    make(chan struct{}),
		admit:      make(chan struct{}, cfg.MaxInFlight),
		reqNonce:   newNonce(),
		start:      time.Now(),
		met:        newServerMetrics(),
		accessLog:  obs.NewAccessLog(1024),
	}
	s.registerState()
	s.http = &http.Server{
		Addr:    cfg.Addr,
		Handler: s.Handler(),
		// Request contexts derive from baseCtx so the drain path can cancel
		// stragglers: the engine aborts within one sweep or label test.
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// SetEngine arms a NewPending server with its engine. Call once, after
// the engine is fully constructed; engine endpoints begin serving on the
// next request.
func (s *Server) SetEngine(eng *notable.Engine) { s.eng.Store(eng) }

// engine returns the engine, or nil while still booting.
func (s *Server) engine() *notable.Engine { return s.eng.Load() }

// SetReadiness publishes the serving-fitness state /healthz reports.
// Boot and follower lifecycles call it as they progress; passing
// Ready true flips /healthz back to 200.
func (s *Server) SetReadiness(r Readiness) { s.readiness.Store(&r) }

// newNonce returns a per-process request-id prefix so ids stay unique
// across restarts.
func newNonce() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "srv"
	}
	return hex.EncodeToString(b[:])
}

// Handler returns the server's full route tree — exposed for tests and
// for embedding behind an existing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/livez", s.handleLivez)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/logz", s.handleLogz)
	mux.Handle("/v1/search", s.engineEndpoint(s.handleSearch))
	mux.Handle("/v1/batch", s.engineEndpoint(s.handleBatch))
	mux.Handle("/v1/stream", s.engineEndpoint(s.handleStream))
	mux.Handle("/v1/ingest", s.engineEndpoint(s.handleIngest))
	// Replication exports: GET, long-lived, outside the admission gate —
	// a follower's stream must not compete with query traffic for slots.
	mux.HandleFunc("/v1/repl/stream", s.handleReplStream)
	mux.HandleFunc("/v1/repl/snapshot", s.handleReplSnapshot)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Every route — engine or not — gets an id, a log line, and panic
	// isolation; only engine endpoints pass the admission gate.
	return s.withRequestID(s.withRecovery(mux))
}

// Run listens on Config.Addr and serves until ctx is cancelled, then
// drains: the caller typically passes a signal.NotifyContext ctx so
// SIGTERM/SIGINT trigger the drain. Returns nil on a clean drain (even if
// stragglers had to be cancelled — that is the designed degraded path,
// and it is logged), or the listener/serve error.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run over an existing listener (tests use port 0).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.cfg.Logf("server: listening on %s", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own; nothing to drain.
		return err
	case <-ctx.Done():
	}
	return s.drain(errc)
}

// drain is the shutdown half of Serve: stop accepting, wait out in-flight
// requests under the drain deadline, cancel stragglers, and only then
// force-close whatever still holds a connection.
func (s *Server) drain(errc chan error) error {
	if s.draining.CompareAndSwap(false, true) {
		s.drainStart.Store(time.Now().UnixNano())
		// Wake long-lived streams (replication tails) so Shutdown's
		// in-flight wait is over handlers that actually end.
		close(s.drainCh)
	}
	s.cfg.Logf("server: draining (deadline %v, %d in flight)", s.cfg.DrainTimeout, s.inflight.Load())
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.http.Shutdown(shCtx)
	if err != nil {
		// Stragglers outlived the deadline: cancel their request contexts —
		// the engine stops within one sweep or label test — and give the
		// handlers a short grace to flush their (degraded or error)
		// responses before dropping connections.
		n := s.inflight.Load()
		s.cancelBase()
		graceCtx, cancelGrace := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelGrace()
		if err2 := s.http.Shutdown(graceCtx); err2 != nil {
			s.http.Close()
		}
		s.cfg.Logf("server: drain deadline exceeded; cancelled %d in-flight request(s)", n)
	} else {
		s.cancelBase()
	}
	<-errc // Serve has returned http.ErrServerClosed
	s.cfg.Logf("server: drained")
	return nil
}

// healthzResponse is the /healthz (readiness) body: ready or not, why,
// and — when the process is catching up — how far along it is.
type healthzResponse struct {
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Target uint64 `json:"target,omitempty"`
}

// handleHealthz is READINESS: 200 only when this process should receive
// traffic. Draining, booting (engine not yet set — a durable engine
// still replaying its WAL tail), or a follower behind its epoch floor
// all answer 503 with the current/target epochs, while /livez stays 200
// — the difference between "stop routing here" and "restart me".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthzResponse{Status: "draining"})
		return
	}
	eng := s.engine()
	if eng == nil {
		resp := healthzResponse{Status: "booting"}
		if rd := s.readiness.Load(); rd != nil {
			resp.Epoch, resp.Target = rd.Epoch, rd.Target
			if rd.Status != "" {
				resp.Status = rd.Status
			}
		}
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if rd := s.readiness.Load(); rd != nil && !rd.Ready {
		status := rd.Status
		if status == "" {
			status = "unready"
		}
		writeJSON(w, http.StatusServiceUnavailable, healthzResponse{
			Status: status, Epoch: rd.Epoch, Target: rd.Target,
		})
		return
	}
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", Ready: true, Epoch: eng.Epoch()})
}

// handleLivez is LIVENESS: 200 whenever the process can answer at all —
// booting, catching up, even draining. Restart triggers key off this;
// routing decisions key off /healthz.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// readRSSBytes returns the resident set size from /proc/self/statm
// (second field, in pages), or 0 on platforms without procfs — callers
// treat 0 as "unknown", not "no memory".
func readRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// errorResponse is the JSON error body every non-200 answer carries.
type errorResponse struct {
	Error     string   `json:"error"`
	RequestID string   `json:"request_id,omitempty"`
	Missing   []string `json:"missing,omitempty"`
}

// encBufPool recycles the buffers writeJSON encodes into: /statsz and
// /v1/logz payloads run to tens of kilobytes, and re-growing a fresh
// buffer per response is the dominant allocation of a stats poller's
// steady state.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v into a pooled buffer, then writes it with the
// given status. Buffering first means an encode error — a programming
// bug, every payload here is plain structs — surfaces as a clean 500
// instead of a half-written 200, and the response carries an accurate
// Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 { // don't pin a pathological payload forever
			buf.Reset()
			encBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError maps err to a status + JSON body. The mapping is by error
// identity, never by message: typed library errors arrive here intact.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	resp := errorResponse{Error: err.Error(), RequestID: requestIDFrom(r.Context())}
	var ue *notable.UnresolvedError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, resp)
	case errors.As(err, &ue):
		resp.Missing = ue.Missing
		writeJSON(w, http.StatusBadRequest, resp)
	case errors.Is(err, notable.ErrBadQuery), errors.Is(err, notable.ErrEmptyQuery),
		errors.Is(err, notable.ErrBadTriple):
		writeJSON(w, http.StatusBadRequest, resp)
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, resp)
	case errors.Is(err, context.Canceled):
		// The client went away (or the drain cancelled us); the connection
		// is usually dead, but answer properly in case it is not.
		writeJSON(w, statusClientClosedRequest, resp)
	default:
		writeJSON(w, http.StatusInternalServerError, resp)
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the request ctx
// was cancelled from outside the handler.
const statusClientClosedRequest = 499

// retryAfterSeconds renders base as a whole-second Retry-After value
// with ±20% jitter, so a replica fleet (or a crowd of clients) told to
// come back later does not return in lockstep. Always ≥ 1.
func retryAfterSeconds(base time.Duration) string {
	jittered := float64(base) * (0.8 + 0.4*rand.Float64())
	secs := int(math.Ceil(jittered / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// drainRetryAfter is the honest Retry-After base while draining: the
// time left until this process is actually gone (drain deadline minus
// elapsed) plus a restart margin — retrying against this address any
// sooner can only hit the same dying listener. Config.RetryAfter floors
// it (and covers the not-actually-draining race).
func (s *Server) drainRetryAfter() time.Duration {
	started := s.drainStart.Load()
	if started == 0 {
		return s.cfg.RetryAfter
	}
	remaining := s.cfg.DrainTimeout - time.Since(time.Unix(0, started)) + time.Second
	if remaining < s.cfg.RetryAfter {
		remaining = s.cfg.RetryAfter
	}
	return remaining
}

// badRequest wraps a request-shape problem (malformed JSON, oversized
// body) for writeError.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", notable.ErrBadQuery, fmt.Sprintf(format, args...))
}
