// Server-side observability: per-endpoint request counters and latency
// histograms, the process and admission gauges, the access-log ring, and
// the GET /metrics, GET /statsz and GET /v1/logz handlers that expose
// them.
//
// Every series is registered once at construction; the per-request path
// resolves its endpointMetrics with a string switch (no map lookup, no
// allocation) and pays a few atomic adds. Gauges read the server's own
// atomics at scrape time. The registry is only walked at scrape time.
package server

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/obs"
)

// statusClass buckets HTTP statuses for the request counters: 2xx, 4xx,
// 5xx, and everything else (1xx/3xx — rare enough to share a series).
var statusClasses = [4]string{"2xx", "4xx", "5xx", "other"}

func classIdx(status int) int {
	switch {
	case status >= 200 && status < 300:
		return 0
	case status >= 400 && status < 500:
		return 1
	case status >= 500:
		return 2
	default:
		return 3
	}
}

// endpointMetrics is one route's preregistered series: a counter per
// status class and a latency histogram.
type endpointMetrics struct {
	classes [len(statusClasses)]*obs.Counter
	lat     *obs.Histogram
}

// serverMetrics holds the serving layer's registry and every
// endpointMetrics, resolved by path switch on the hot path.
type serverMetrics struct {
	reg *obs.Registry

	search, batch, stream, ingest         endpointMetrics
	replStream, replSnapshot              endpointMetrics
	healthz, livez, statsz, metricz, logz endpointMetrics
	other                                 endpointMetrics

	shed *obs.Counter // admission-gate rejections
}

func newEndpointMetrics(reg *obs.Registry, path string) endpointMetrics {
	var m endpointMetrics
	for i, class := range statusClasses {
		m.classes[i] = reg.NewCounter("nc_http_requests_total",
			"HTTP requests served, by path and status class.",
			"path", path, "code", class)
	}
	m.lat = reg.NewHistogram("nc_http_request_seconds",
		"HTTP request latency in seconds, by path.", "path", path)
	return m
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg:          reg,
		search:       newEndpointMetrics(reg, "/v1/search"),
		batch:        newEndpointMetrics(reg, "/v1/batch"),
		stream:       newEndpointMetrics(reg, "/v1/stream"),
		ingest:       newEndpointMetrics(reg, "/v1/ingest"),
		replStream:   newEndpointMetrics(reg, "/v1/repl/stream"),
		replSnapshot: newEndpointMetrics(reg, "/v1/repl/snapshot"),
		healthz:      newEndpointMetrics(reg, "/healthz"),
		livez:        newEndpointMetrics(reg, "/livez"),
		statsz:       newEndpointMetrics(reg, "/statsz"),
		metricz:      newEndpointMetrics(reg, "/metrics"),
		logz:         newEndpointMetrics(reg, "/v1/logz"),
		other:        newEndpointMetrics(reg, "other"),
		shed: reg.NewCounter("nc_http_shed_total",
			"Requests rejected by the admission gate."),
	}
}

// endpoint maps a request path to its preregistered series. Unknown
// paths (including /debug/pprof/) share the "other" series, so the
// cardinality of the exposition is fixed at construction — a scanner
// probing random URLs cannot grow it.
func (m *serverMetrics) endpoint(path string) *endpointMetrics {
	switch path {
	case "/v1/search":
		return &m.search
	case "/v1/batch":
		return &m.batch
	case "/v1/stream":
		return &m.stream
	case "/v1/ingest":
		return &m.ingest
	case "/v1/repl/stream":
		return &m.replStream
	case "/v1/repl/snapshot":
		return &m.replSnapshot
	case "/healthz":
		return &m.healthz
	case "/livez":
		return &m.livez
	case "/statsz":
		return &m.statsz
	case "/metrics":
		return &m.metricz
	case "/v1/logz":
		return &m.logz
	default:
		return &m.other
	}
}

// registerState adds the process and admission gauges to the
// server registry. They are read at scrape time, so nothing is added to
// the request path; a booting server reports them before its engine
// exists.
func (s *Server) registerState() {
	reg := s.met.reg
	reg.NewGaugeFunc("nc_process_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.NewGaugeFunc("nc_process_goroutines", "Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("nc_process_rss_bytes", "Resident set size from /proc/self/statm (0 where unavailable).",
		func() float64 { return float64(readRSSBytes()) })
	reg.NewGaugeFunc("nc_process_heap_live_bytes", "Go heap bytes the last collection marked live.",
		func() float64 { return readRuntimeMetric("/gc/heap/live:bytes") })
	reg.NewGaugeFunc("nc_process_heap_goal_bytes", "Go heap size at which the next collection starts.",
		func() float64 { return readRuntimeMetric("/gc/heap/goal:bytes") })
	reg.NewGaugeFunc("nc_server_draining", "1 once graceful shutdown has begun.",
		func() float64 { return obs.Bool(s.draining.Load()) })
	reg.NewGaugeFunc("nc_server_in_flight", "Admitted engine requests being served.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.NewGaugeFunc("nc_server_max_in_flight", "Admission-gate size.",
		func() float64 { return float64(s.cfg.MaxInFlight) })
	reg.NewGaugeFunc("nc_server_read_only", "1 when ingest is refused (follower stance).",
		func() float64 { return obs.Bool(s.cfg.ReadOnly) })
	reg.NewGaugeFunc("nc_server_booting", "1 while the engine is still being built.",
		func() float64 { return obs.Bool(s.engine() == nil) })
	reg.NewGaugeFunc("nc_server_ready", "1 when an engine is armed and readiness does not gate it.",
		func() float64 {
			rd := s.readiness.Load()
			return obs.Bool(s.engine() != nil && (rd == nil || rd.Ready))
		})
}

// readRuntimeMetric reads one uint64 runtime/metrics sample, 0 if the
// runtime does not support it.
func readRuntimeMetric(name string) float64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

// Metrics returns the server's own registry — request counters, latency
// histograms, shed counter, process gauges — so callers (ncserved wires
// follower lag here) can register process-level series for exposition
// on /metrics and /statsz.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// AccessLog returns the server's ring of recent requests.
func (s *Server) AccessLog() *obs.AccessLog { return s.accessLog }

// registries lists what GET /metrics and GET /statsz render: the server
// registry, then the engine's once armed. Family names are disjoint by
// construction, so the concatenation is one well-formed exposition.
func (s *Server) registries() []*obs.Registry {
	if eng := s.engine(); eng != nil {
		return []*obs.Registry{s.met.reg, eng.Metrics()}
	}
	return []*obs.Registry{s.met.reg}
}

// handleMetrics is GET /metrics: Prometheus text exposition of the
// server registry followed by the engine's (when armed).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only", RequestID: requestIDFrom(r.Context())})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	for _, reg := range s.registries() {
		if err := reg.WritePrometheus(w); err != nil {
			return // client went away mid-scrape; nothing to salvage
		}
	}
}

// handleStatsz is GET /statsz: the JSON rendering of exactly the series
// GET /metrics exposes — the server's own, plus the engine's once armed
// (a booting process still reports its process gauges).
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	// Stats are point-in-time: an intermediary caching them would feed
	// tuning loops stale gauges.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, obs.Collect(s.registries()...))
}

// logzResponse is the GET /v1/logz payload: the ring's recent requests,
// oldest first, plus the all-time total so a poller can tell how much
// the ring has dropped between scrapes.
type logzResponse struct {
	Total   uint64       `json:"total"`
	Records []obs.Record `json:"records"`
}

// handleLogz is GET /v1/logz: drain (non-consuming) the access-log ring.
// ?n= bounds the returned records to the newest n.
func (s *Server) handleLogz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only", RequestID: requestIDFrom(r.Context())})
		return
	}
	max := s.accessLog.Cap()
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, r, badRequestf("bad n=%q", v))
			return
		}
		if n < max {
			max = n
		}
	}
	recs := s.accessLog.Drain(max)
	if recs == nil {
		recs = []obs.Record{} // render as [], not null
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, logzResponse{Total: s.accessLog.Total(), Records: recs})
}
