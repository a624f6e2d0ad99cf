package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is one closed-loop caller: one keep-alive connection, one request
// in flight.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what the caller observed for one operation.
type reply struct {
	OK      bool // 2xx, whole body read, not degraded, no per-line error
	Latency time.Duration
	// Answers holds, per query of the request, when its result was in the
	// caller's hands: the arrival of its NDJSON line on /v1/stream, the end
	// of the response otherwise.
	Answers []time.Duration
	Body    []byte // full response body
	Epoch   uint64 // acknowledged epoch (ingest only)
}

var (
	degradedMark = []byte(`"degraded":true`)
	errorMark    = []byte(`"error":`)
)

// do sends req and reads the whole response. The clock stops when the last
// byte has arrived; nothing but the ingest acknowledgement is decoded on
// this path, so the generator takes as little of the two cores as it can.
func (c *client) do(req request) reply {
	var rep reply
	start := time.Now()
	resp, err := c.hc.Post(c.base+opPaths[req.Kind], "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return rep
	}
	defer resp.Body.Close()
	if req.Kind == opStream {
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 {
				rep.Answers = append(rep.Answers, time.Since(start))
				rep.Body = append(rep.Body, line...)
			}
			if err != nil {
				if err != io.EOF {
					return rep
				}
				break
			}
		}
		rep.Latency = time.Since(start)
		rep.OK = len(rep.Answers) == len(req.Queries) && !bytes.Contains(rep.Body, errorMark)
	} else {
		rep.Body, err = io.ReadAll(resp.Body)
		if err != nil {
			return rep
		}
		rep.Latency = time.Since(start)
		for range req.Queries {
			rep.Answers = append(rep.Answers, rep.Latency)
		}
		rep.OK = true
	}
	rep.OK = rep.OK && resp.StatusCode/100 == 2 && !bytes.Contains(rep.Body, degradedMark)
	if rep.OK && req.Kind == opIngest {
		var ack struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(rep.Body, &ack); err != nil {
			rep.OK = false
		}
		rep.Epoch = ack.Epoch
	}
	return rep
}

// tally is what one client saw over a phase, kept per op kind.
type tally struct {
	Attempted [numOpKinds]int
	Failed    [numOpKinds]int
	Lat       [numOpKinds]latencies
	TTFR      latencies // first NDJSON line of /v1/stream
	Answers   latencies // per-query answer latency, every query-carrying op
	Queries   int       // correctly answered queries
	RespBytes int64
	Elapsed   time.Duration
}

func (t *tally) merge(o *tally) {
	for k := 0; k < int(numOpKinds); k++ {
		t.Attempted[k] += o.Attempted[k]
		t.Failed[k] += o.Failed[k]
		t.Lat[k] = append(t.Lat[k], o.Lat[k]...)
	}
	t.TTFR = append(t.TTFR, o.TTFR...)
	t.Answers = append(t.Answers, o.Answers...)
	t.Queries += o.Queries
	t.RespBytes += o.RespBytes
	if o.Elapsed > t.Elapsed {
		t.Elapsed = o.Elapsed
	}
}

func (t *tally) record(req request, rep reply) {
	k := req.Kind
	t.Attempted[k]++
	t.RespBytes += int64(len(rep.Body))
	if !rep.OK {
		t.Failed[k]++
		return
	}
	t.Lat[k].add(rep.Latency)
	t.Queries += len(req.Queries)
	for _, a := range rep.Answers {
		t.Answers.add(a)
	}
	if k == opStream {
		t.TTFR.add(rep.Answers[0])
	}
}

func (t *tally) attempted() (n int) {
	for _, v := range t.Attempted {
		n += v
	}
	return n
}

func (t *tally) failed() (n int) {
	for _, v := range t.Failed {
		n += v
	}
	return n
}

// sweeps pools /v1/stream and /v1/batch full-response latencies.
func (t *tally) sweeps() latencies {
	return append(append(latencies(nil), t.Lat[opStream]...), t.Lat[opBatch]...)
}

// latencyTable renders every latency sample of the tally for the report:
// count, median and the listed tail percentiles, whether or not the sample
// supports them (supported_percentile says which it does).
func (t *tally) latencyTable() map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	row := func(name string, l latencies) {
		if len(l) == 0 {
			return
		}
		s := l.sorted()
		out[name] = map[string]float64{"n": float64(len(s)), "p50": percentile(s, 0.50)}
		for _, p := range listedPercentiles {
			out[name][fmt.Sprintf("p%.0f", p*100)] = percentile(s, p)
		}
	}
	row("search", t.Lat[opSearch])
	row("sweep", t.sweeps())
	row("ttfr", t.TTFR)
	row("ingest", t.Lat[opIngest])
	row("answer", t.Answers)
	return out
}

// opCounts renders attempted/succeeded/failed per op kind for the report.
func (t *tally) opCounts() map[string]map[string]int {
	out := make(map[string]map[string]int)
	for k, name := range opNames {
		if t.Attempted[k] == 0 {
			continue
		}
		out[name] = map[string]int{
			"attempted": t.Attempted[k],
			"succeeded": t.Attempted[k] - t.Failed[k],
			"failed":    t.Failed[k],
		}
	}
	return out
}
