package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	// The highest listed percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {39, 0.5}, // 39 samples: p75 leaves 9 beyond
		{40, 0.75},             // p75 leaves exactly 10
		{99, 0.75}, {100, 0.9}, // p90 needs 100
		{199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.95: 95, 0.99: 99, 1: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Request: "r", ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{Request: "r", ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Request: "r", ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{Request: "r", ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out by 20
		{Request: "r", ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// root: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName(spans)["root"]; got != 40e-6 {
		t.Errorf("selfByName[root] = %v ms, want 40e-6", got)
	}
}

func TestTracerParentage(t *testing.T) {
	tr := newTracer()
	root := tr.reserve("q", 0, "root", tr.t0)
	tr.timed("q", root, "child", func() {})
	tr.finish(root, tr.t0.Add(1000))
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End != 1000 {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// stream renders the first n requests of one client as the bytes that
// would go on the wire.
func stream(g *generator, c, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		req := g.request(c, i)
		buf.WriteString(opPaths[req.Kind])
		buf.Write(req.Body)
	}
	return buf.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.Big {
			continue // same generator code; the small graphs keep this test fast
		}
		pool := entityPool(generateGraph(w).Graph)
		a, b := newGenerator(w, 7, pool), newGenerator(w, 7, pool)
		other := newGenerator(w, 8, pool)
		for c := 0; c < numClients; c++ {
			if !bytes.Equal(stream(a, c, 200), stream(b, c, 200)) {
				t.Errorf("%s: client %d differs between two generators of one seed", w.Name, c)
			}
			if bytes.Equal(stream(a, c, 200), stream(other, c, 200)) {
				t.Errorf("%s: client %d identical under seeds 7 and 8", w.Name, c)
			}
		}
		if bytes.Equal(stream(a, 0, 200), stream(a, 1, 200)) {
			t.Errorf("%s: clients 0 and 1 send the same stream", w.Name)
		}
	}
}

func TestExploreRequestsAreDistinct(t *testing.T) {
	// The workload's premise: every request misses the selector cache.
	w := workloadByName("explore_contextrw")
	g := newGenerator(w, 1, entityPool(generateGraph(w).Graph))
	seen := make(map[string]bool)
	for c := 0; c < numClients; c++ {
		for i := 0; i < 1000; i++ {
			seen[string(g.request(c, i).Body)] = true
		}
	}
	if len(seen) < numClients*1000*99/100 {
		t.Errorf("%d distinct requests of %d", len(seen), numClients*1000)
	}
}

func TestSessionAndIngestShape(t *testing.T) {
	w := workloadByName("session_randomwalk")
	pool := entityPool(generateGraph(workloadByName("ingest_read")).Graph)
	g := newGenerator(w, 1, pool)
	kinds := []opKind{opSearch, opSearch, opSearch, opStream, opBatch}
	sizes := []int{1, 1, 1, sweepSize, sweepSize}
	for i := 0; i < 2*sessionSteps; i++ {
		req := g.request(0, i)
		if req.Kind != kinds[i%sessionSteps] || len(req.Queries) != sizes[i%sessionSteps] {
			t.Errorf("session step %d: kind %v with %d queries", i, req.Kind, len(req.Queries))
		}
	}
	if a, b := g.request(0, 0).Queries[0], g.request(0, 2).Queries[0]; a[0] != b[0] || a[1] != b[1] || len(b) != 4 {
		t.Errorf("refinement does not extend the pivot pair: %v then %v", a, b)
	}

	gi := newGenerator(workloadByName("ingest_read"), 1, pool)
	b0, b2 := gi.request(1, ingestEvery-1), gi.request(1, 3*ingestEvery-1)
	if b0.Kind != opIngest || len(b0.Adds) != ingestAdds || len(b0.Dels) != 0 {
		t.Errorf("first batch: %+v", b0)
	}
	if len(b2.Dels) != ingestDels || b2.Dels[0] != b0.Adds[0] || b2.Dels[1] != b0.Adds[1] {
		t.Errorf("third batch deletes %v, first batch added %v", b2.Dels, b0.Adds)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclaredNamesMatchManifest(t *testing.T) {
	var mf manifest
	if err := readJSON("../BENCHMARK.json", &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, bench runs %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.Name || mf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q, bench %q", i, mf.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, declared []manifestMetric, emitted []metricSpec) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: manifest declares %d metrics, bench emits %d", kind, len(declared), len(emitted))
			return
		}
		seen := make(map[string]bool)
		for i, s := range emitted {
			d := declared[i]
			if d.Name != s.Name || d.Unit != s.Unit {
				t.Errorf("%s metric %d: manifest %s [%s], bench %s [%s]", kind, i, d.Name, d.Unit, s.Name, s.Unit)
			}
			if !nameRE.MatchString(s.Name) || seen[s.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, s.Name)
			}
			seen[s.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd)
	check("per_layer", mf.PerLayer, perLayer)
	for _, d := range mf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestResultLineEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	o := &outcome{Correct: true, Attempted: 3, Metrics: map[string]float64{"stray": 1}}
	for _, s := range endToEnd {
		o.Metrics[s.Name] = 1.5
	}
	line, err := resultLine(o, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys: %s", line)
	}
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(endToEnd) || r.Metrics["setup_s"].Unit != "s" {
		t.Errorf("metrics: %s", line)
	}
	delete(o.Metrics, "setup_s")
	if _, err := resultLine(o, endToEnd); err == nil {
		t.Error("a declared metric that was not measured must be an error")
	}
}

func TestVerdict(t *testing.T) {
	lower := true
	for _, tc := range []struct {
		name           string
		parent, change []float64
		bound          float64
		want           string
	}{
		{"within bound", []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, 0.10, "ok"},
		{"past bound", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, 0.10, "regressed"},
		{"noisy and overlapping", []float64{8, 10, 14, 9}, []float64{9, 11, 15, 10}, 0.10, "unresolved"},
		{"noisy but every run better", []float64{10, 13, 16, 12}, []float64{5, 6, 8, 7}, 0.10, "ok"},
		{"single runs", []float64{10}, []float64{11.5}, 0.10, "regressed"},
	} {
		if _, got := verdict(tc.parent, tc.change, lower, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, got := verdict([]float64{100}, []float64{80}, false, 0.10); got != "regressed" {
		t.Errorf("higher-is-better drop of 20%%: verdict = %s", got)
	}
}

func TestCompareFiles(t *testing.T) {
	var mf manifest
	if err := readJSON("../BENCHMARK.json", &mf); err != nil {
		t.Fatal(err)
	}
	side := func(scale float64) string {
		doc := document{Workloads: make(map[string]*workloadDoc)}
		for _, w := range mf.Workloads {
			r := result{Correct: true, Attempted: 1, Metrics: make(map[string]metricValue)}
			for _, m := range mf.EndToEnd {
				v := 100.0
				if m.Name == "search_p50_ms" {
					v *= scale
				}
				r.Metrics[m.Name] = metricValue{v, m.Unit}
			}
			doc.Workloads[w.Name] = &workloadDoc{Runs: []result{r}}
		}
		path := t.TempDir() + "/doc.json"
		if err := os.WriteFile(path, []byte(mustLine(doc)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, side(1), side(1.05), "../BENCHMARK.json")
	if err != nil || regressed {
		t.Errorf("5%% slower search_p50_ms: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = compareFiles(&out, side(1), side(1.5), "../BENCHMARK.json")
	if err != nil || !regressed || !bytes.Contains(out.Bytes(), []byte("regressed")) {
		t.Errorf("50%% slower search_p50_ms: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
