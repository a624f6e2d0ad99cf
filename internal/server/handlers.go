// The three engine endpoints and their wire types. The JSON surface
// deliberately exposes the request-scoped library API one-to-one: a wire
// query is a notable.Query plus name resolution, a response is a
// notable.Result flattened to what clients render (names and scores, not
// internal distributions).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
)

// wireQuery is one query as clients send it. Entities (names, resolved
// fuzzily like ncsearch) and Nodes (raw graph ids) may be mixed; at least
// one of the two must be non-empty. The override fields mirror
// notable.Query: zero means "inherit the engine's option".
type wireQuery struct {
	Entities    []string         `json:"entities,omitempty"`
	Nodes       []notable.NodeID `json:"nodes,omitempty"`
	ContextSize int              `json:"context_size,omitempty"`
	Selector    string           `json:"selector,omitempty"`
	Alpha       float64          `json:"alpha,omitempty"`
	TopK        int              `json:"top_k,omitempty"`
	Policy      string           `json:"policy,omitempty"`
	TestSamples int              `json:"test_samples,omitempty"`
	Walks       int              `json:"walks,omitempty"`
	Damping     float64          `json:"damping,omitempty"`
	// Degrade opts into deadline-degraded mode. Omitted means true: a
	// serving deadline should degrade a response, not destroy it. Send
	// false to get a 504 instead of a partial 200.
	Degrade *bool `json:"degrade,omitempty"`
}

// searchRequest is the /v1/search body: one wireQuery plus the request
// deadline.
type searchRequest struct {
	wireQuery
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// batchRequest is the /v1/batch and /v1/stream body. The timeout spans
// the whole batch.
type batchRequest struct {
	Queries   []wireQuery `json:"queries"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// wireContextItem is one scored context node.
type wireContextItem struct {
	ID    uint32  `json:"id"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// wireCharacteristic is one tested label, flattened for rendering.
type wireCharacteristic struct {
	Label     string  `json:"label"`
	Score     float64 `json:"score"`
	Kind      string  `json:"kind"`
	Notable   bool    `json:"notable"`
	InstP     float64 `json:"inst_p"`
	CardP     float64 `json:"card_p"`
	InstScore float64 `json:"inst_score"`
	CardScore float64 `json:"card_score"`
}

// searchResponse is one completed (or degraded) search on the wire.
type searchResponse struct {
	RequestID string `json:"request_id,omitempty"`
	// Epoch is a floor on the graph epoch this result was computed at:
	// the engine's epoch read just before the search pinned its view (the
	// pinned epoch is ≥ it, and ≥ any X-Min-Epoch the request carried).
	// Clients thread it back as X-Min-Epoch for read-your-writes across
	// replicas.
	Epoch uint64 `json:"epoch"`
	// Degraded marks a deadline-cut result: Characteristics holds the
	// labels tested before the cut (Tested of Total), a prefix-consistent
	// subset of the full report.
	Degraded        bool                 `json:"degraded"`
	Tested          int                  `json:"tested"`
	Total           int                  `json:"total"`
	ElapsedMS       float64              `json:"elapsed_ms"`
	Query           []string             `json:"query"`
	Context         []wireContextItem    `json:"context"`
	Characteristics []wireCharacteristic `json:"characteristics"`
}

// batchResponse is the /v1/batch answer: one entry per query, in order.
type batchResponse struct {
	RequestID string `json:"request_id,omitempty"`
	// Epoch is the batch-wide floor (see searchResponse.Epoch).
	Epoch     uint64           `json:"epoch"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Results   []searchResponse `json:"results"`
}

// streamOutcome is one NDJSON line of /v1/stream: the query's index in
// the request, then either an error or its result.
type streamOutcome struct {
	Index  int             `json:"index"`
	Error  string          `json:"error,omitempty"`
	Result *searchResponse `json:"result,omitempty"`
}

// toQuery resolves a wireQuery into a notable.Query: entity names through
// the engine's fuzzy resolver, raw node ids validated against the graph.
// Handlers call it after awaitMinEpoch: both checks read the current
// epoch, and the entity a read-your-writes request names may exist only
// from the epoch it waits for.
func toQuery(eng *notable.Engine, wq wireQuery) (notable.Query, error) {
	nodes := make([]notable.NodeID, 0, len(wq.Nodes)+len(wq.Entities))
	numNodes := eng.Graph().NumNodes()
	for _, id := range wq.Nodes {
		if int(id) >= numNodes {
			return notable.Query{}, badRequestf("node id %d out of range (graph has %d nodes)", id, numNodes)
		}
		nodes = append(nodes, id)
	}
	if len(wq.Entities) > 0 {
		resolved, err := eng.Resolve(wq.Entities...)
		if err != nil {
			return notable.Query{}, err
		}
		nodes = append(nodes, resolved...)
	}
	degrade := wq.Degrade == nil || *wq.Degrade
	return notable.Query{
		Nodes:       nodes,
		ContextSize: wq.ContextSize,
		Selector:    wq.Selector,
		Alpha:       wq.Alpha,
		TopK:        wq.TopK,
		Policy:      wq.Policy,
		TestSamples: wq.TestSamples,
		Walks:       wq.Walks,
		Damping:     wq.Damping,
		Degrade:     degrade,
	}, nil
}

// toResponse flattens a result for the wire. de is nil for a full
// result; epoch is the floor read before the search pinned its view.
func (s *Server) toResponse(res notable.Result, de *notable.DegradedError, elapsed time.Duration, rid string, epoch uint64) searchResponse {
	g := s.engine().Graph()
	out := searchResponse{
		RequestID: rid,
		Epoch:     epoch,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Tested:    len(res.Characteristics),
		Total:     len(res.Characteristics),
	}
	if de != nil {
		out.Degraded = true
		out.Tested = de.Tested
		out.Total = de.Total
	}
	out.Query = make([]string, len(res.Query))
	for i, id := range res.Query {
		out.Query[i] = g.NodeName(id)
	}
	out.Context = make([]wireContextItem, len(res.Context))
	for i, it := range res.Context {
		out.Context[i] = wireContextItem{ID: it.ID, Name: g.NodeName(notable.NodeID(it.ID)), Score: it.Score}
	}
	out.Characteristics = make([]wireCharacteristic, len(res.Characteristics))
	for i, c := range res.Characteristics {
		out.Characteristics[i] = wireCharacteristic{
			Label:     c.Name,
			Score:     c.Score,
			Kind:      c.Kind.String(),
			Notable:   c.Notable(),
			InstP:     c.InstP,
			CardP:     c.CardP,
			InstScore: c.InstScore,
			CardScore: c.CardScore,
		}
	}
	return out
}

// awaitMinEpoch enforces a request's X-Min-Epoch header — the
// read-your-writes floor a client (or the router, on its behalf) sets
// from a previous write's acked epoch. A replica already at or past the
// floor proceeds immediately; one behind it waits up to
// Config.MinEpochWait for replay to catch up, then answers 503 with
// Retry-After and X-Replica-Epoch so the router retries a replica that
// is caught up. Returns false when it wrote the response itself.
func (s *Server) awaitMinEpoch(w http.ResponseWriter, r *http.Request, eng *notable.Engine) bool {
	h := r.Header.Get("X-Min-Epoch")
	if h == "" {
		return true
	}
	min, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		s.writeError(w, r, badRequestf("bad X-Min-Epoch %q: %v", h, err))
		return false
	}
	if eng.Epoch() >= min {
		return true
	}
	// Poll rather than subscribe: a replica's epoch advances from its
	// follower loop, and 5ms granularity is far below any client-visible
	// latency bound while keeping the engine seam untouched.
	deadline := time.Now().Add(s.cfg.MinEpochWait)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			s.writeError(w, r, r.Context().Err())
			return false
		case <-tick.C:
		}
		if eng.Epoch() >= min {
			return true
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	cur := eng.Epoch()
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	w.Header().Set("X-Replica-Epoch", strconv.FormatUint(cur, 10))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:     fmt.Sprintf("replica at epoch %d, behind requested minimum %d", cur, min),
		RequestID: requestIDFrom(r.Context()),
	})
	return false
}

// handleSearch serves POST /v1/search: one query under one deadline,
// degraded by default rather than erroring when the deadline lands in the
// comparison stage.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	eng := s.engine()
	if !s.awaitMinEpoch(w, r, eng) {
		return
	}
	q, err := toQuery(eng, req.wireQuery)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	// The epoch floor travels in the response: Do pins a view at least
	// this new (epochs only grow), so the result is correct at some epoch
	// ≥ floor ≥ the request's min epoch.
	floor := eng.Epoch()
	start := time.Now()
	res, err := eng.Do(ctx, q)
	var de *notable.DegradedError
	if err != nil && !errors.As(err, &de) {
		s.writeError(w, r, err)
		return
	}
	resp := s.toResponse(res, de, time.Since(start), requestIDFrom(r.Context()), floor)
	writeAppended(w, &resp, func(b []byte) ([]byte, bool) { return appendSearchResponse(b, &resp) })
}

// batchPrelude runs the steps /v1/batch and /v1/stream share before any
// query runs: decode the body, reject an empty batch, wait for the
// X-Min-Epoch floor, resolve every query, and derive the batch's timeout
// ctx from the request's. A nil engine means the error response is
// already written; otherwise the caller owns cancel.
func (s *Server) batchPrelude(w http.ResponseWriter, r *http.Request) (*notable.Engine, []notable.Query, context.Context, context.CancelFunc) {
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return nil, nil, nil, nil
	}
	if len(req.Queries) == 0 {
		s.writeError(w, r, badRequestf("empty batch"))
		return nil, nil, nil, nil
	}
	eng := s.engine()
	if !s.awaitMinEpoch(w, r, eng) {
		return nil, nil, nil, nil
	}
	qs := make([]notable.Query, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := toQuery(eng, wq)
		if err != nil {
			s.writeError(w, r, badRequestf("query %d: %v", i, err))
			return nil, nil, nil, nil
		}
		qs[i] = q
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	return eng, qs, ctx, cancel
}

// handleBatch serves POST /v1/batch: the whole batch in one deduplicated
// pass, all-or-nothing (use /v1/stream for per-query failure isolation).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	eng, qs, ctx, cancel := s.batchPrelude(w, r)
	if eng == nil {
		return
	}
	defer cancel()
	floor := eng.Epoch()
	start := time.Now()
	results, err := eng.DoBatch(ctx, qs)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	elapsed := time.Since(start)
	rid := requestIDFrom(r.Context())
	resp := batchResponse{RequestID: rid, Epoch: floor, ElapsedMS: float64(elapsed.Microseconds()) / 1000}
	resp.Results = make([]searchResponse, len(results))
	for i, res := range results {
		resp.Results[i] = s.toResponse(res, nil, elapsed, "", floor)
	}
	writeAppended(w, &resp, func(b []byte) ([]byte, bool) { return appendBatchResponse(b, &resp) })
}

// wireTriple is one (subject, predicate, object) fact on the wire.
type wireTriple struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// ingestRequest is the /v1/ingest body: triples to add and delete, one
// atomic batch. Deletes apply before adds, exactly like
// notable.Engine.ApplyTriples.
type ingestRequest struct {
	Adds      []wireTriple `json:"adds,omitempty"`
	Dels      []wireTriple `json:"dels,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// ingestResponse reports the batch's outcome: the epoch now current
// (unchanged when the batch had no effect) and the live store's overlay
// state afterwards.
type ingestResponse struct {
	RequestID   string  `json:"request_id,omitempty"`
	Epoch       uint64  `json:"epoch"`
	OverlayAdds int     `json:"overlay_adds"`
	OverlayDels int     `json:"overlay_dels"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// toTriples converts wire triples, rejecting nothing — field validation
// (empty s/p/o) belongs to ApplyTriples so the error surface is one.
func toTriples(ws []wireTriple) []notable.Triple {
	if len(ws) == 0 {
		return nil
	}
	ts := make([]notable.Triple, len(ws))
	for i, w := range ws {
		ts[i] = notable.Triple{S: w.S, P: w.P, O: w.O}
	}
	return ts
}

// handleIngest serves POST /v1/ingest: applies one triple batch to the
// live graph and publishes it as a new epoch, without a restart and
// without interrupting in-flight searches (they finish on the epoch they
// pinned). Malformed triples reject the whole batch with 400 and leave
// the graph untouched.
//
// A draining server refuses writes outright with 503 + Retry-After:
// searches in flight get to finish, but a process about to exit must not
// accept a batch it may never persist (with a WAL the ack would still be
// honest, but the client should already be talking to a live node).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadOnly {
		writeJSON(w, http.StatusForbidden, errorResponse{
			Error:     "read-only replica: ingest goes to the primary",
			RequestID: requestIDFrom(r.Context()),
		})
		return
	}
	if s.draining.Load() {
		// The honest hint: this listener is gone once the drain budget runs
		// out, so that (plus jitter, so a fleet of retriers spreads out) is
		// the soonest a retry against this address can land.
		w.Header().Set("Retry-After", retryAfterSeconds(s.drainRetryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error:     "draining: not accepting writes",
			RequestID: requestIDFrom(r.Context()),
		})
		return
	}
	eng := s.engine()
	var req ingestRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(req.Adds) == 0 && len(req.Dels) == 0 {
		s.writeError(w, r, badRequestf("empty ingest: no adds or dels"))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	epoch, err := eng.ApplyTriples(ctx, toTriples(req.Adds), toTriples(req.Dels))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	st := eng.VersionStats()
	writeJSON(w, http.StatusOK, ingestResponse{
		RequestID:   requestIDFrom(r.Context()),
		Epoch:       epoch,
		OverlayAdds: st.OverlayAdds,
		OverlayDels: st.OverlayDels,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleStream serves POST /v1/stream: NDJSON, one streamOutcome per
// query in completion order, flushed as each lands. A client that
// disconnects cancels the request ctx; the engine stops within one sweep
// or label test and the remaining outcomes are dropped with the
// connection.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	eng, qs, ctx, cancel := s.batchPrelude(w, r)
	if eng == nil {
		return
	}
	defer cancel()
	floor := eng.Epoch()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var buf []byte // one line's encoding, reused across lines
	start := time.Now()
	for o := range eng.DoStream(ctx, qs) {
		line := streamOutcome{Index: o.Index}
		if o.Err != nil {
			line.Error = o.Err.Error()
		} else {
			resp := s.toResponse(o.Result, nil, time.Since(start), "", floor)
			line.Result = &resp
		}
		var ok bool
		buf, ok = appendStreamOutcome(buf[:0], &line)
		if !ok {
			// A NaN or infinite float, which JSON cannot carry: the stream
			// ends here, as the client-gone path below ends it.
			cancel()
			return
		}
		if _, err := w.Write(buf); err != nil {
			// The client is gone. Cancel the batch — the engine stops within
			// one sweep or label test — and walk away: DoStream's channel is
			// fully buffered, so an abandoned consumer leaks nothing.
			cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
