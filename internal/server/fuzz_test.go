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

// queryPaths are the endpoints FuzzQueryDecoders posts every body to.
var queryPaths = []string{"/v1/search", "/v1/batch", "/v1/stream"}

// FuzzQueryDecoders: any body POSTed to /v1/search, /v1/batch or
// /v1/stream gets 200, a typed 4xx, 503 or 504 with a JSON body — on a
// stream, every NDJSON line is a JSON value — and never a panic or a 5xx
// the client cannot act on.
func FuzzQueryDecoders(f *testing.F) {
	for _, body := range []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"entities":["Angela Merkel","Barack Obama"]}`,
		`{"entities":["Angela Merkel"],"selector":"randomwalk","context_size":3}`,
		`{"nodes":[0,1],"top_k":2,"policy":"pooled","alpha":0.05}`,
		`{"nodes":[4294967295]}`,
		`{"entities":["Nobody Known"]}`,
		`{"entities":["Angela Merkel"],"walks":-1,"damping":1.5}`,
		`{"entities":["Angela Merkel"],"selector":"RandomWalk"}`,
		`{"entities":["Angela Merkel"],"context_size":1000000000,"test_samples":3}`,
		`{"entities":["Angela Merkel"],"timeout_ms":1,"degrade":false}`,
		`{"entities":["Angela Merkel"],"unknown":1}`,
		`{"queries":[]}`,
		`{"queries":[{"entities":["Angela Merkel","Barack Obama"]},{"nodes":[2,3],"selector":"randomwalk"}]}`,
		`{"queries":[{"entities":["Angela Merkel"]},{"nodes":[]}],"timeout_ms":1}`,
		`{"queries":[{"entities":["Angela Merkel"],"policy":"pooledd"}]}`,
		`{"queries":[{"nodes":[0]}],"timeout_ms":-5}`,
		`{"queries":null}`,
		`{"entities":"Angela Merkel"}`,
		`{"entities":["Angela Merkel"]}{"entities":["Barack Obama"]}`,
	} {
		f.Add([]byte(body))
	}
	eng := testEngine(notable.Options{})
	h := New(eng, quietCfg()).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range queryPaths {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rec, req)

			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			default:
				t.Fatalf("%s: status %d for body %q: %s", path, rec.Code, body, rec.Body.Bytes())
			}
			if path == "/v1/stream" && rec.Code == http.StatusOK {
				for i, line := range bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n")) {
					if !json.Valid(line) {
						t.Fatalf("%s: line %d of the stream for body %q is not JSON: %q", path, i, body, line)
					}
				}
				continue
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: status %d with a non-JSON body %q for body %q", path, rec.Code, rec.Body.Bytes(), body)
			}
		}
	})
}
