package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	notable "repro"
	"repro/internal/kg"
)

// answer is the part of a served result the gate compares: context ids and
// scores, and every characteristic's label, scores and p-values. Go's JSON
// float encoding round-trips, so equality below is bitwise.
type answer struct {
	Epoch           uint64        `json:"epoch"`
	Context         []contextItem `json:"context"`
	Characteristics []charItem    `json:"characteristics"`
}

type contextItem struct {
	ID    uint32  `json:"id"`
	Score float64 `json:"score"`
}

type charItem struct {
	Label     string  `json:"label"`
	Score     float64 `json:"score"`
	Kind      string  `json:"kind"`
	Notable   bool    `json:"notable"`
	InstP     float64 `json:"inst_p"`
	CardP     float64 `json:"card_p"`
	InstScore float64 `json:"inst_score"`
	CardScore float64 `json:"card_score"`
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.Context, b.Context) && slices.Equal(a.Characteristics, b.Characteristics)
}

// answerOf projects an engine result the way the server's wire format does.
func answerOf(res notable.Result) answer {
	var a answer
	for _, it := range res.Context {
		a.Context = append(a.Context, contextItem{ID: it.ID, Score: it.Score})
	}
	for _, c := range res.Characteristics {
		a.Characteristics = append(a.Characteristics, charItem{
			Label: c.Name, Score: c.Score, Kind: c.Kind.String(), Notable: c.Notable(),
			InstP: c.InstP, CardP: c.CardP, InstScore: c.InstScore, CardScore: c.CardScore,
		})
	}
	return a
}

// decodeAnswers parses a sampled response body into one answer per query
// of the request, in query order.
func decodeAnswers(s sample) ([]answer, error) {
	out := make([]answer, len(s.Req.Queries))
	switch s.Req.Kind {
	case opSearch:
		return out, json.Unmarshal(s.Body, &out[0])
	case opBatch:
		var resp struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(s.Body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != len(out) {
			return nil, fmt.Errorf("batch answered %d of %d queries", len(resp.Results), len(out))
		}
		return resp.Results, nil
	default: // opStream: NDJSON in completion order
		seen := 0
		for _, line := range bytes.Split(bytes.TrimSpace(s.Body), []byte("\n")) {
			var o struct {
				Index  int     `json:"index"`
				Result *answer `json:"result"`
			}
			if err := json.Unmarshal(line, &o); err != nil {
				return nil, err
			}
			if o.Result == nil || o.Index < 0 || o.Index >= len(out) {
				return nil, fmt.Errorf("stream line without a result: %s", line)
			}
			out[o.Index] = *o.Result
			seen++
		}
		if seen != len(out) {
			return nil, fmt.Errorf("stream answered %d of %d queries", seen, len(out))
		}
		return out, nil
	}
}

// reference answers queries on a cache-disabled, Parallelism-1 engine and
// remembers them, so a hot query sampled many times is computed once per
// epoch.
type reference struct {
	eng  *notable.Engine
	mu   sync.Mutex
	memo map[string]answer
}

func newReference(g *kg.Graph, w *workloadSpec, seed int64) *reference {
	return &reference{eng: notable.NewEngine(g, referenceOptions(w, seed)), memo: make(map[string]answer)}
}

func (r *reference) answer(entities []string) (answer, error) {
	key := fmt.Sprintf("%d|%s", r.eng.Epoch(), strings.Join(entities, "|"))
	r.mu.Lock()
	a, ok := r.memo[key]
	r.mu.Unlock()
	if ok {
		return a, nil
	}
	nodes, err := r.eng.Resolve(entities...)
	if err != nil {
		return answer{}, err
	}
	res, err := r.eng.Do(context.Background(), notable.Query{Nodes: nodes})
	if err != nil {
		return answer{}, err
	}
	a = answerOf(res)
	r.mu.Lock()
	r.memo[key] = a
	r.mu.Unlock()
	return a, nil
}

// advance applies the acknowledged batches up to epoch, in epoch order, so
// the reference assigns the same node ids the served engine did.
func (r *reference) advance(epoch uint64, ackedAt map[uint64]request) error {
	for r.eng.Epoch() < epoch {
		req, ok := ackedAt[r.eng.Epoch()+1]
		if !ok {
			return fmt.Errorf("no acknowledged batch for epoch %d", r.eng.Epoch()+1)
		}
		if _, err := r.eng.ApplyTriples(context.Background(), kgTriples(req.Adds), kgTriples(req.Dels)); err != nil {
			return err
		}
	}
	return nil
}

func kgTriples(ts []triple) []kg.Triple {
	out := make([]kg.Triple, len(ts))
	for i, t := range ts {
		out[i] = kg.Triple{S: t.S, P: t.P, O: t.O}
	}
	return out
}

// minGateSamples is how many sampled requests the gate checks at least.
const minGateSamples = 32

// checked is one decoded sampled query waiting for its reference answer.
type checked struct {
	entities []string
	got      answer
}

// verify is the correctness gate: it tops the samples up to
// minGateSamples, compares every sampled answer with the reference engine
// at the same epoch, and checks the durable workload's invariants. It
// returns the number of mismatches with a line describing each.
func (e *env) verify() (mismatches int, notes []string) {
	fail := func(format string, args ...any) {
		mismatches++
		if len(notes) < 10 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	// A short window (-smoke) leaves the gate short: keep issuing requests,
	// alternating clients and keeping every reply, until it has enough.
	var topUp tally
	e.topUp = true
	for n := 0; len(e.samples[0])+len(e.samples[1]) < minGateSamples && topUp.failed() == 0; n++ {
		e.step(n%numClients, &topUp)
	}
	e.topUp = false
	if topUp.failed() > 0 {
		fail("%d top-up operations failed", topUp.failed())
	}

	var queue []checked
	for c := range e.samples {
		for _, s := range e.samples[c] {
			answers, err := decodeAnswers(s)
			if err != nil {
				fail("undecodable %s response: %v", opNames[s.Req.Kind], err)
				continue
			}
			for i, a := range answers {
				queue = append(queue, checked{s.Req.Queries[i], a})
			}
		}
	}
	if e.w.Durable {
		for _, msg := range e.verifyLive(queue) {
			fail("%s", msg)
		}
		return mismatches, notes
	}

	// Static graph: answers are independent, so two workers share one
	// reference engine.
	ref := newReference(e.graph, e.w, e.seed)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for wkr := 0; wkr < numClients; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := wkr; i < len(queue); i += numClients {
				want, err := ref.answer(queue[i].entities)
				mu.Lock()
				if err != nil {
					fail("reference failed on %v: %v", queue[i].entities, err)
				} else if !want.equal(queue[i].got) {
					fail("answer for %v differs from the reference", queue[i].entities)
				}
				mu.Unlock()
			}
		}(wkr)
	}
	wg.Wait()
	return mismatches, notes
}

// verifyLive checks a workload whose graph moved during the run. A
// response carries the epoch read just before the search pinned its view,
// and the other client can land at most one batch in between, so an answer
// must equal the reference at that epoch or the next.
func (e *env) verifyLive(queue []checked) (problems []string) {
	acked := uint64(e.acks)
	if got := e.eng.Epoch(); got != acked || len(e.ackedAt) != e.acks {
		problems = append(problems, fmt.Sprintf("engine at epoch %d after %d acknowledged effective batches on %d distinct epochs", got, acked, len(e.ackedAt)))
	}
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].got.Epoch < queue[j].got.Epoch })

	var retry []checked
	for pass, todo := 0, queue; pass < 2 && len(todo) > 0; pass, todo = pass+1, retry {
		ref := newReference(e.graph, e.w, e.seed)
		for _, q := range todo {
			at := min(q.got.Epoch+uint64(pass), acked)
			if err := ref.advance(at, e.ackedAt); err != nil {
				return append(problems, err.Error())
			}
			want, err := ref.answer(q.entities)
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("reference failed on %v: %v", q.entities, err))
			case want.equal(q.got):
			case pass == 0:
				retry = append(retry, q)
			default:
				problems = append(problems, fmt.Sprintf("answer for %v at epoch %d differs from the reference", q.entities, q.got.Epoch))
			}
		}
	}

	// The overlay the run left behind must read like a from-scratch graph.
	scratch := notable.NewEngine(e.eng.Graph().Materialize(), referenceOptions(e.w, e.seed))
	for _, entities := range e.gen.hot {
		nodes, err := e.eng.Resolve(entities...)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		live, err1 := e.eng.Do(context.Background(), notable.Query{Nodes: nodes})
		flat, err2 := scratch.Do(context.Background(), notable.Query{Nodes: nodes})
		if err1 != nil || err2 != nil || !answerOf(live).equal(answerOf(flat)) {
			problems = append(problems, fmt.Sprintf("hot query %v differs on the materialized graph", entities))
		}
	}
	return problems
}
