package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// fuzzMaxBody is FuzzIngest's body limit: small enough that the fuzzer
// reaches the 413 path without megabyte inputs.
const fuzzMaxBody = 1024

// FuzzIngest: any body POSTed to /v1/ingest gets a typed answer — 200,
// 400, 413 or 504 with a JSON body, never a 5xx the client cannot act
// on — and a refused batch leaves the graph's epoch where it was.
func FuzzIngest(f *testing.F) {
	for _, body := range []string{
		``,
		`{"addz":[{"s":"a","p":"b","o":"c"}]}`,
		`{"adds":[],"dels":[]}`,
		`{"adds":[{"s":"","p":"studied","o":"Law"}]}`,
		`{"adds":[{"s":"Angela Merkel","p":"","o":"Law"}]}`,
		`{"dels":[{"s":"Angela Merkel","p":"studied","o":""}]}`,
		`{"adds":[{"s":"Angela Merkel","p":"type","o":"chemist"}]}`,
		`{"adds":[{"s":"Angela Merkel","p":"studied⁻¹","o":"Law"}]}`,
		`{"dels":[{"s":"Law","p":"studied⁻¹","o":"Barack Obama"}],"timeout_ms":1}`,
		`{"adds":[{"s":"Angela Merkel","p":"awarded","o":"Nobel Prize"}]}`,
		`{"adds":[{"s":"` + strings.Repeat("x", 2*fuzzMaxBody) + `","p":"b","o":"c"}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		eng := testEngine(notable.Options{})
		cfg := quietCfg()
		cfg.MaxBodyBytes = fuzzMaxBody
		h := New(eng, cfg).Handler()
		before := eng.Epoch()

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK && eng.Epoch() != before {
			t.Fatalf("status %d moved the epoch %d -> %d", rec.Code, before, eng.Epoch())
		}
	})
}
