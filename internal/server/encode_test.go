package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encodeRef is what the search bodies were written with before the append
// encoders: json.NewEncoder(...).Encode, trailing newline included.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// FuzzResponseEncoding pins the append encoders byte for byte to
// encoding/json over searchResponse, batchResponse and streamOutcome
// values built from arbitrary strings and floats: every value
// encoding/json encodes comes out identical, and every value it refuses
// (NaN, ±Inf) is reported as not encodable.
func FuzzResponseEncoding(f *testing.F) {
	strs := []string{
		"Angela Merkel", "", `say "hi"`, `back\slash`, "tab\tnew\nline\x00\x1f\x7f",
		"<b>&amp;</b>", "line\u2028para\u2029", "bad \xff\xfe utf-8", "Zoë Saldaña ⁻¹", "studied⁻¹",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0),
		-1e-7, 1.5e-10, 1e21, math.Nextafter(1e21, 0), -1e21, 1.7976931348623157e308,
		0.05, 1 - 0.05, 1.0 / 3, 123456.789, 2e20, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i := range floats {
		f.Add(strs[i%len(strs)], strs[(i+3)%len(strs)], strs[(i+7)%len(strs)], uint64(i)*1e17,
			floats[i], floats[(i+5)%len(floats)], floats[(i+11)%len(floats)], uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, name, label, rid string, epoch uint64, f1, f2, f3 float64, flags uint8) {
		resp := searchResponse{
			RequestID: rid,
			Epoch:     epoch,
			Degraded:  flags&1 != 0,
			Tested:    int(epoch % 97),
			Total:     -int(flags),
			ElapsedMS: f1,
		}
		if flags&2 == 0 {
			resp.Query = []string{name, label}
		}
		if flags&4 == 0 {
			resp.Context = []wireContextItem{{ID: uint32(epoch), Name: name, Score: f2}, {Name: label, Score: f3}}
		}
		if flags&8 == 0 {
			resp.Characteristics = []wireCharacteristic{{
				Label: label, Score: f3, Kind: name, Notable: flags&16 != 0,
				InstP: f1, CardP: f2, InstScore: -f3, CardScore: f1 * f2,
			}}
		}
		batch := batchResponse{RequestID: label, Epoch: epoch, ElapsedMS: f2}
		if flags&32 == 0 {
			batch.Results = []searchResponse{resp, {}}
		}
		line := streamOutcome{Index: int(flags) - 7, Error: name}
		if flags&64 == 0 {
			line.Result = &resp
		}

		for _, c := range []struct {
			what string
			v    any
			got  func() ([]byte, bool)
		}{
			{"search", &resp, func() ([]byte, bool) { return appendSearchResponse([]byte("x"), &resp) }},
			{"batch", &batch, func() ([]byte, bool) { return appendBatchResponse([]byte("x"), &batch) }},
			{"stream", &line, func() ([]byte, bool) { return appendStreamOutcome([]byte("x"), &line) }},
		} {
			want, err := encodeRef(c.v)
			got, ok := c.got()
			if err != nil {
				if ok {
					t.Fatalf("%s: encoding/json refuses the value (%v), the append encoder took it: %q", c.what, err, got)
				}
				continue
			}
			if !ok || !bytes.Equal(got[1:], want) || got[0] != 'x' {
				t.Fatalf("%s (ok %v):\n got  %q\n want x%q", c.what, ok, got, want)
			}
		}
	})
}
