package notable

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// collectStream drains a DoStream channel into a per-index map, failing
// on duplicate emissions.
func collectStream(t *testing.T, ch <-chan Outcome) map[int]Outcome {
	t.Helper()
	got := make(map[int]Outcome)
	for out := range ch {
		if _, dup := got[out.Index]; dup {
			t.Fatalf("index %d emitted twice", out.Index)
		}
		got[out.Index] = out
	}
	return got
}

// TestDoStreamMatchesSearchBitwise: the stream yields exactly one Outcome
// per query, and every successful Result is bitwise identical to a solo
// Do on a fresh engine — across batch sizes and cache states (the
// duplicate-node query in the mix exercises the uncacheable path).
func TestDoStreamMatchesSearchBitwise(t *testing.T) {
	g := buildLeaders()
	base := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	for _, batchSize := range []int{1, 3, 8} {
		for _, cacheSize := range []int{0, -1} {
			opt := base
			opt.CacheSize = cacheSize
			seqEng := NewEngine(g, opt)
			queries := leaderQueries(t, seqEng, batchSize)
			want := searchSequential(t, seqEng, queries)

			qs := make([]Query, len(queries))
			for i, q := range queries {
				qs[i] = Query{Nodes: q}
			}
			streamEng := NewEngine(g, opt)
			got := collectStream(t, streamEng.DoStream(context.Background(), qs))
			if len(got) != len(qs) {
				t.Fatalf("b=%d cache=%d: %d outcomes for %d queries",
					batchSize, cacheSize, len(got), len(qs))
			}
			for i := range qs {
				out := got[i]
				if out.Err != nil {
					t.Fatalf("b=%d cache=%d: query %d: %v", batchSize, cacheSize, i, out.Err)
				}
				if !reflect.DeepEqual(out.Result, want[i]) {
					t.Fatalf("b=%d cache=%d: stream result %d differs from solo Do",
						batchSize, cacheSize, i)
				}
			}
		}
	}
}

// TestDoStreamObservesOneSelection: every DoStream call over one options
// group adds exactly one observation to the ctx_select stage histogram.
func TestDoStreamObservesOneSelection(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500})
	queries := leaderQueries(t, e, 3)
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Nodes: q}
	}
	for call := 1; call <= 2; call++ {
		collectStream(t, e.DoStream(context.Background(), qs))
		if got := stageCount(t, e, "ctx_select"); got != call {
			t.Fatalf("after %d DoStream calls: ctx_select count %d, want %d", call, got, call)
		}
	}
}

// stageCount reads nc_stage_seconds_count{stage=...} off the engine's
// Prometheus exposition.
func stageCount(t *testing.T, e *Engine, stage string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prefix := `nc_stage_seconds_count{stage="` + stage + `"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s line in the exposition", prefix)
	return 0
}

// TestDoStreamWarmEngine: a fully warm stream emits everything (cache
// hits release before any solving) with identical results.
func TestDoStreamWarmEngine(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	queries := leaderQueries(t, e, 5)
	want := searchSequential(t, e, queries)
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Nodes: q}
	}
	got := collectStream(t, e.DoStream(context.Background(), qs))
	for i := range qs {
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Result, want[i]) {
			t.Fatalf("warm stream result %d differs", i)
		}
	}
}

// TestDoStreamMixedOverridesAndInvalid: overrides group the stream
// without changing per-query results, and malformed queries yield typed
// error Outcomes instead of failing the batch.
func TestDoStreamMixedOverridesAndInvalid(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	queries := leaderQueries(t, e, 4)
	qs := []Query{
		{Nodes: queries[0]},
		{}, // empty: typed error outcome
		{Nodes: queries[1], ContextSize: 4},
		{Nodes: queries[2], TopK: 1},
		{Nodes: queries[3]},
	}
	got := collectStream(t, e.DoStream(context.Background(), qs))
	if len(got) != len(qs) {
		t.Fatalf("%d outcomes for %d queries", len(got), len(qs))
	}
	if !errors.Is(got[1].Err, ErrEmptyQuery) {
		t.Fatalf("empty query outcome: %v, want ErrEmptyQuery", got[1].Err)
	}
	solo := NewEngine(g, opt)
	for i, q := range qs {
		if i == 1 {
			continue
		}
		want, err := solo.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Result, want) {
			t.Fatalf("stream result %d differs from solo Do", i)
		}
	}
}

// TestDoStreamEarlyAbandon: a consumer that cancels after the first
// outcome still sees the channel close promptly, with every index
// emitted exactly once — completed queries with results, abandoned ones
// with ctx.Err() — and no goroutine left solving.
func TestDoStreamEarlyAbandon(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	queries := leaderQueries(t, e, 8)
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Nodes: q}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := e.DoStream(ctx, qs)
	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed before the first outcome")
	}
	cancel()
	seen := map[int]bool{first.Index: true}
	deadline := time.After(30 * time.Second)
	for {
		select {
		case out, ok := <-ch:
			if !ok {
				if len(seen) != len(qs) {
					t.Fatalf("stream closed after %d of %d outcomes", len(seen), len(qs))
				}
				return
			}
			if seen[out.Index] {
				t.Fatalf("index %d emitted twice", out.Index)
			}
			seen[out.Index] = true
			if out.Err != nil && !errors.Is(out.Err, context.Canceled) {
				t.Fatalf("index %d: err = %v, want nil or context.Canceled", out.Index, out.Err)
			}
		case <-deadline:
			t.Fatalf("stream did not close after cancellation (%d of %d outcomes)", len(seen), len(qs))
		}
	}
}

// TestDoStreamConsumerWalksAway: the channel is buffered for the whole
// batch, so a consumer that stops receiving without cancelling leaks
// nothing — the workers run the batch to completion and close the
// channel.
func TestDoStreamConsumerWalksAway(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	queries := leaderQueries(t, e, 4)
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Nodes: q}
	}
	ch := e.DoStream(context.Background(), qs)
	<-ch // take one outcome, then stop receiving
	// The stream must still finish and close on its own: poll until the
	// buffered channel holds the rest and closes.
	deadline := time.After(30 * time.Second)
	drained := 1
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if drained != len(qs) {
					t.Fatalf("drained %d of %d outcomes", drained, len(qs))
				}
				return
			}
			drained++
		case <-deadline:
			t.Fatal("abandoned stream never completed")
		}
	}
}

// BenchmarkSearchStream is the streaming path's acceptance benchmark on
// the same overlapping 8-query actors mix as BenchmarkSearchBatch:
// dobatch measures the barriered batch, stream/first the time until
// DoStream's first outcome, stream/total the full stream drain. The
// acceptance bound is stream/first ≤ 0.5x dobatch (time-to-first-result),
// with identical per-query payloads (pinned by the equivalence tests).
func BenchmarkSearchStream(b *testing.B) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: benchSeed, Scale: benchScale})
	g := d.Graph
	g.Transitions()
	opt := Options{
		ContextSize:    30,
		Selector:       SelectorRandomWalk,
		Seed:           benchSeed,
		CacheSize:      -1,
		TestSamples:    500,
		TestExactLimit: 5000,
	}
	e := NewEngine(g, opt)
	cohort, err := d.Scenario("actors").QueryIDs(g, 6)
	if err != nil {
		b.Fatal(err)
	}
	var qs []Query
	for drop := 0; drop < len(cohort); drop++ {
		q := make([]NodeID, 0, len(cohort)-1)
		for i, id := range cohort {
			if i != drop {
				q = append(q, id)
			}
		}
		qs = append(qs, Query{Nodes: q})
	}
	qs = append(qs, Query{Nodes: cohort}, Query{Nodes: cohort[:4]})
	ctx := context.Background()

	b.Run("dobatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.DoBatch(ctx, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		var firstNS, totalNS int64
		for i := 0; i < b.N; i++ {
			start := time.Now()
			ch := e.DoStream(ctx, qs)
			out, ok := <-ch
			if !ok || out.Err != nil {
				b.Fatalf("first outcome: ok=%v err=%v", ok, out.Err)
			}
			firstNS += time.Since(start).Nanoseconds()
			for out := range ch {
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
			totalNS += time.Since(start).Nanoseconds()
		}
		b.ReportMetric(float64(firstNS)/float64(b.N), "ns/first-result")
		b.ReportMetric(float64(totalNS)/float64(b.N), "ns/total")
	})
}
