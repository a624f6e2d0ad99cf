package server

// Append-style JSON encoding of the search bodies: /v1/search, /v1/batch
// and each /v1/stream line. A warm search is two cache lookups and a copy,
// so encoding is a large share of what it costs; these encoders write the
// exact bytes json.NewEncoder(w).Encode would (trailing newline included,
// pinned by FuzzResponseEncoding) without reflection. Every other body
// goes through writeJSON.

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// appendSearchResponse appends r's JSON encoding and a newline to b. ok is
// false when a float is NaN or infinite, which encoding/json refuses; b is
// then unspecified.
func appendSearchResponse(b []byte, r *searchResponse) ([]byte, bool) {
	e := jsonAppender{b: b}
	e.search(r)
	e.raw("\n")
	return e.b, !e.bad
}

// appendBatchResponse is appendSearchResponse for a /v1/batch body.
func appendBatchResponse(b []byte, r *batchResponse) ([]byte, bool) {
	e := jsonAppender{b: b}
	e.head(r.RequestID, r.Epoch)
	e.float(`,"elapsed_ms":`, r.ElapsedMS)
	e.raw(`,"results":`)
	appendList(&e, r.Results, e.search)
	e.raw("}\n")
	return e.b, !e.bad
}

// appendStreamOutcome is appendSearchResponse for one /v1/stream line.
func appendStreamOutcome(b []byte, o *streamOutcome) ([]byte, bool) {
	e := jsonAppender{b: b}
	e.raw(`{"index":`)
	e.b = strconv.AppendInt(e.b, int64(o.Index), 10)
	if o.Error != "" {
		e.raw(`,"error":`)
		e.str(o.Error)
	}
	if o.Result != nil {
		e.raw(`,"result":`)
		e.search(o.Result)
	}
	e.raw("}\n")
	return e.b, !e.bad
}

// jsonAppender appends JSON to b, in encoding/json's field order and
// formats. bad records a float that JSON cannot carry.
type jsonAppender struct {
	b   []byte
	bad bool
}

func (e *jsonAppender) raw(s string) { e.b = append(e.b, s...) }

// head opens an object with the optional request_id and the epoch.
func (e *jsonAppender) head(requestID string, epoch uint64) {
	e.raw("{")
	if requestID != "" {
		e.raw(`"request_id":`)
		e.str(requestID)
		e.raw(",")
	}
	e.raw(`"epoch":`)
	e.b = strconv.AppendUint(e.b, epoch, 10)
}

func (e *jsonAppender) search(r *searchResponse) {
	e.head(r.RequestID, r.Epoch)
	e.raw(`,"degraded":`)
	e.b = strconv.AppendBool(e.b, r.Degraded)
	e.raw(`,"tested":`)
	e.b = strconv.AppendInt(e.b, int64(r.Tested), 10)
	e.raw(`,"total":`)
	e.b = strconv.AppendInt(e.b, int64(r.Total), 10)
	e.float(`,"elapsed_ms":`, r.ElapsedMS)
	e.raw(`,"query":`)
	appendList(e, r.Query, func(q *string) { e.str(*q) })
	e.raw(`,"context":`)
	appendList(e, r.Context, func(it *wireContextItem) {
		e.raw(`{"id":`)
		e.b = strconv.AppendUint(e.b, uint64(it.ID), 10)
		e.raw(`,"name":`)
		e.str(it.Name)
		e.float(`,"score":`, it.Score)
		e.raw("}")
	})
	e.raw(`,"characteristics":`)
	appendList(e, r.Characteristics, func(c *wireCharacteristic) {
		e.raw(`{"label":`)
		e.str(c.Label)
		e.float(`,"score":`, c.Score)
		e.raw(`,"kind":`)
		e.str(c.Kind)
		e.raw(`,"notable":`)
		e.b = strconv.AppendBool(e.b, c.Notable)
		e.float(`,"inst_p":`, c.InstP)
		e.float(`,"card_p":`, c.CardP)
		e.float(`,"inst_score":`, c.InstScore)
		e.float(`,"card_score":`, c.CardScore)
		e.raw("}")
	})
	e.raw("}")
}

// appendList appends xs as a JSON array, each element by elem; a nil
// slice is null, as encoding/json writes it.
func appendList[T any](e *jsonAppender, xs []T, elem func(*T)) {
	if xs == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range xs {
		if i > 0 {
			e.raw(",")
		}
		elem(&xs[i])
	}
	e.raw("]")
}

// str appends s as a JSON string. Printable ASCII other than the quote,
// the backslash and encoding/json's HTML escapes (<, >, &) is copied as it
// is; any other string goes through json.Marshal, which keeps the
// escaping identical.
func (e *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.raw(`"`)
	e.raw(s)
	e.raw(`"`)
}

// float appends key and f in encoding/json's format: 'f', switching to
// 'e' below 1e-6 and at or above 1e21, with a two-digit negative exponent
// shortened (e-07 → e-7). NaN and ±Inf set bad instead.
func (e *jsonAppender) float(key string, f float64) {
	e.raw(key)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// respBufPool recycles the buffers writeAppended encodes into.
var respBufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended answers 200 with the body appendTo builds in a pooled
// buffer. A body it cannot encode (a NaN or infinite float) falls back to
// writeJSON with v, whose encoder refuses it with a 500.
func writeAppended(w http.ResponseWriter, v any, appendTo func([]byte) ([]byte, bool)) {
	bp := respBufPool.Get().(*[]byte)
	body, ok := appendTo((*bp)[:0])
	if cap(body) <= 1<<20 { // don't pin a pathological payload forever
		*bp = body
		defer respBufPool.Put(bp)
	}
	if !ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
