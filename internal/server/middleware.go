// Middleware: request-id injection, access logging, panic isolation, the
// load-shedding admission gate, body-size limits, and per-request timeout
// propagation. Ordering (outermost first) is requestID → recovery →
// admission → handler: the id exists before anything can log or panic,
// recovery wraps everything including the gate, and the gate runs before
// a byte of body is read so a shed request costs one header parse.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"

	"repro/internal/obs"
	"sync/atomic"
	"time"
)

// ctxKey is the private type for context values set by middleware.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// requestIDFrom returns the request id injected by withRequestID ("" when
// the middleware did not run, e.g. direct handler tests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// statusWriter records the status code (and whether one was written) so
// the logger and the panic recovery know the response's state.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestID honors an inbound X-Request-ID (so ids follow a request
// across proxies) or mints one, echoes it on the response, stores it in
// ctx, and writes the access-log line when the handler returns.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%s-%d", s.reqNonce, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(start)
		// One counter bump, one histogram observe, one ring write — all
		// preregistered, no allocation beyond the strings the request
		// already owns.
		ep := s.met.endpoint(r.URL.Path)
		ep.classes[classIdx(status)].Inc()
		ep.lat.Observe(dur)
		s.accessLog.Add(obs.Record{
			Time:           start,
			Method:         r.Method,
			Path:           r.URL.Path,
			RequestID:      id,
			Status:         status,
			DurationMicros: dur.Microseconds(),
		})
		s.cfg.Logf("server: %s %s %d %.1fms rid=%s", r.Method, r.URL.Path, status,
			float64(dur.Microseconds())/1000, id)
	})
}

// withRecovery converts a handler panic into a logged stack plus a 500 —
// when the handler had not yet written a header — without touching the
// process or concurrent requests. net/http would recover a panicking
// handler goroutine anyway (killing just that connection), but it logs an
// opaque line and, for a half-written response, leaves the client to infer
// the failure; recovering here keeps the failure shaped like every other
// error: typed, logged with the request id, answered with JSON.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, _ := w.(*statusWriter)
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			// http.ErrAbortHandler is the sanctioned "drop this connection"
			// panic (e.g. from a ResponseWriter after a client vanished);
			// re-raising keeps net/http's handling for it.
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.cfg.Logf("server: panic rid=%s: %v\n%s", requestIDFrom(r.Context()), v, debug.Stack())
			if sw == nil || sw.status == 0 {
				writeJSON(w, http.StatusInternalServerError, errorResponse{
					Error:     "internal error",
					RequestID: requestIDFrom(r.Context()),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// engineEndpoint wraps an engine-calling handler with the admission gate,
// the body-size limit, and the per-request timeout. POST only.
func (s *Server) engineEndpoint(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only", RequestID: requestIDFrom(r.Context())})
			return
		}
		// A pending server (engine still booting — WAL replay, snapshot
		// download) sheds engine traffic immediately: /healthz already says
		// not-ready, this is the backstop for clients that skipped it.
		if s.engine() == nil {
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error:     "booting: engine not ready",
				RequestID: requestIDFrom(r.Context()),
			})
			return
		}
		// Admission: non-blocking acquire. Shedding before reading the body
		// keeps the rejection cost flat however large the overload.
		select {
		case s.admit <- struct{}{}:
		default:
			s.met.shed.Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error:     "overloaded, retry later",
				RequestID: requestIDFrom(r.Context()),
			})
			return
		}
		defer func() { <-s.admit }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if hook := testRequestHook.Load(); hook != nil {
			(*hook)(r)
		}
		h(w, r)
	})
}

// testRequestHook, when non-nil, runs after admission and before the
// handler — the test seam lifecycle tests use to hold a request in flight
// or make it panic deterministically. Atomic because handler goroutines
// read it with no other synchronization against the test's store.
var testRequestHook atomic.Pointer[func(*http.Request)]

// testEngineCtx, when non-nil, wraps the ctx every engine call runs under
// — the test seam that cuts a request after a fixed number of ctx probes,
// or holds it mid-flight, whatever the host's speed.
var testEngineCtx atomic.Pointer[func(context.Context) context.Context]

// requestCtx is the ctx a handler runs the engine under: r's, bounded by
// timeout_ms from the body when given (clamped to MaxTimeout),
// Config.RequestTimeout otherwise.
func (s *Server) requestCtx(r *http.Request, ms int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if ms > 0 {
		d = min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if wrap := testEngineCtx.Load(); wrap != nil {
		ctx = (*wrap)(ctx)
	}
	return ctx, cancel
}

// decodeBody decodes the request body into v, mapping the failure shapes
// clients actually produce — oversized bodies, malformed JSON, unknown
// fields — onto ErrBadQuery so writeError answers 400/413 coherently.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return tooLarge
		}
		return badRequestf("decoding request body: %v", err)
	}
	return nil
}
