package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// rng is splitmix64: tiny, seedable from several integers, and — unlike
// math/rand — guaranteed to produce the same stream on every Go version,
// which is what makes request i of client c a pure function of
// (seed, c, i).
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		// Re-seed from the mixed output: folding parts into the raw
		// counter would let (c, i) and (c^1, i^1) land on the same stream.
		r.s ^= p
		r.s = r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// distinct draws n different indices below bound.
func (r *rng) distinct(n, bound int) []int {
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		v := r.intn(bound)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

type opKind int

const (
	opSearch opKind = iota
	opStream
	opBatch
	opIngest
	numOpKinds
)

var opNames = [numOpKinds]string{"search", "stream", "batch", "ingest"}
var opPaths = [numOpKinds]string{"/v1/search", "/v1/stream", "/v1/batch", "/v1/ingest"}

type triple struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// request is one generated operation: the bytes that go on the wire plus
// the structured form the correctness gate replays.
type request struct {
	Kind    opKind
	Body    []byte
	Queries [][]string // entity names per query; nil for ingest
	Adds    []triple
	Dels    []triple
}

// Generator stream tags, folded into the rng seed so the hot set, the
// per-client request streams and the ingest batches never share draws.
const (
	streamRequests = iota + 1
	streamHot
	streamBatches
)

const (
	sessionSteps   = 5
	sweepSize      = 8
	ingestEvery    = 4 // every 4th op of a client is an ingest
	ingestAdds     = 6
	ingestDels     = 2
	ingestDelLag   = 2 // deletes target the batch added this many batches ago
	zipfS          = 1.2
	ingestPred     = "actedIn"
	ingestObjectFm = "bench:film-%d-%d-%d"
)

// generator turns (seed, client, i) into requests for one workload. pool
// is the entity pool (actor names in graph order).
type generator struct {
	w    *workloadSpec
	seed uint64
	pool []string
	hot  [][]string // pre-built hot query set
	zipf []float64  // cumulative Zipf weights over hot (serve_warm)
}

func newGenerator(w *workloadSpec, seed int64, pool []string) *generator {
	g := &generator{w: w, seed: uint64(seed), pool: pool}
	for j := 0; j < w.Hot; j++ {
		r := newRNG(g.seed, streamHot, uint64(j))
		g.hot = append(g.hot, g.names(r.distinct(querySize(j), len(pool))))
	}
	if w.Prewarm {
		sum := 0.0
		for j := range g.hot {
			sum += 1 / math.Pow(float64(j+1), zipfS)
			g.zipf = append(g.zipf, sum)
		}
	}
	return g
}

// Query sizes cycle 2, 3, 4 — by request index, by hot-set rank — and only
// the actors are drawn. A request's cost grows with its entity count, so a
// drawn size would make the size mix, and with it every percentile, a
// property of the seed: the median of an explore window sits inside the
// size-3 cluster and moves by milliseconds when the mix shifts by a
// percent.
func querySize(i int) int { return 2 + i%3 }

func (g *generator) names(idx []int) []string {
	out := make([]string, len(idx))
	for i, v := range idx {
		out[i] = g.pool[v]
	}
	return out
}

// request builds request i of client c.
func (g *generator) request(c, i int) request {
	r := newRNG(g.seed, streamRequests, uint64(c), uint64(i))
	switch g.w.Name {
	case "session_randomwalk":
		return g.sessionStep(c, i/sessionSteps, i%sessionSteps)
	case "serve_warm":
		u := r.float() * g.zipf[len(g.zipf)-1]
		j := 0
		for g.zipf[j] < u {
			j++
		}
		return searchRequest(g.hot[j])
	case "ingest_read":
		if i%ingestEvery == ingestEvery-1 {
			return g.ingestBatch(c, i/ingestEvery)
		}
		return searchRequest(g.hot[r.intn(len(g.hot))])
	default: // explore_contextrw
		return searchRequest(g.names(r.distinct(querySize(i), len(g.pool))))
	}
}

// sessionStep is step 0–4 of a client's s-th session around a fresh pivot
// pair {A,B}: cold pair, two refinements, a streamed sweep, a batched sweep.
func (g *generator) sessionStep(c, s, step int) request {
	r := newRNG(g.seed, streamRequests, uint64(c), uint64(s))
	names := g.names(r.distinct(4+2*sweepSize, len(g.pool)))
	pivot, extra := names[:2], names[4:]
	switch step {
	case 0, 1, 2:
		return searchRequest(names[:2+step])
	case 3:
		return sweepRequest(opStream, pivot, extra[:sweepSize])
	default:
		return sweepRequest(opBatch, pivot, extra[sweepSize:])
	}
}

// ingestBatch is client c's b-th write: six new actor—actedIn→film edges
// onto fresh nodes (so every batch is effective and bumps the epoch) and
// the deletion of two edges the same client added two batches earlier.
func (g *generator) ingestBatch(c, b int) request {
	req := request{Kind: opIngest, Adds: g.batchAdds(c, b)}
	if b >= ingestDelLag {
		req.Dels = g.batchAdds(c, b-ingestDelLag)[:ingestDels]
	}
	req.Body = mustJSON(struct {
		Adds []triple `json:"adds"`
		Dels []triple `json:"dels,omitempty"`
	}{req.Adds, req.Dels})
	return req
}

func (g *generator) batchAdds(c, b int) []triple {
	r := newRNG(g.seed, streamBatches, uint64(c), uint64(b))
	adds := make([]triple, ingestAdds)
	for j := range adds {
		adds[j] = triple{S: g.pool[r.intn(len(g.pool))], P: ingestPred, O: fmt.Sprintf(ingestObjectFm, c, b, j)}
	}
	return adds
}

type wireQuery struct {
	Entities []string `json:"entities"`
}

func searchRequest(entities []string) request {
	return request{Kind: opSearch, Queries: [][]string{entities}, Body: mustJSON(wireQuery{entities})}
}

func sweepRequest(kind opKind, pivot, others []string) request {
	req := request{Kind: kind}
	var body struct {
		Queries []wireQuery `json:"queries"`
	}
	for _, x := range others {
		q := append(append([]string(nil), pivot...), x)
		req.Queries = append(req.Queries, q)
		body.Queries = append(body.Queries, wireQuery{q})
	}
	req.Body = mustJSON(body)
	return req
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings: cannot fail
	}
	return b
}
