package metapath

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
)

// naiveBank is the walk bank without its index: every walk's nodes and
// labels, drawn with *rand.Rand and refWeightedPick, and a query scans
// every walk. MineCtx must equal it bit for bit.
type naiveBank struct {
	g      *kg.Graph
	nodes  [][]kg.NodeID
	labels [][]kg.LabelID
}

func newNaiveBank(g *kg.Graph, opt MineOptions, walks int) *naiveBank {
	opt = opt.withDefaults()
	nb := &naiveBank{g: g}
	n := g.NumNodes()
	var rngs [4]*rand.Rand
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(opt.Seed + int64(w)*0x9e3779b9))
	}
	for i := 0; i < walks; i++ {
		rng := rngs[i%4]
		cur := kg.NodeID(rng.Intn(n))
		nodes, labels := []kg.NodeID{cur}, []kg.LabelID{}
		for step := 0; step < opt.MaxLength; step++ {
			adj := g.OutEdges(cur)
			if len(adj) == 0 {
				break
			}
			var e kg.Edge
			if opt.Uniform {
				e = adj[rng.Intn(len(adj))]
			} else {
				e = refWeightedPick(g, cur, adj, rng)
			}
			labels = append(labels, e.Label)
			cur = e.To
			nodes = append(nodes, cur)
		}
		nb.nodes = append(nb.nodes, nodes)
		nb.labels = append(nb.labels, labels)
	}
	return nb
}

// mine answers query from the first walks walks, scanning each for its
// first query node.
func (nb *naiveBank) mine(query []kg.NodeID, walks int) []Mined {
	n := nb.g.NumNodes()
	if n == 0 || len(query) == 0 || walks <= 0 {
		return nil
	}
	inQuery := map[kg.NodeID]bool{}
	for _, q := range query {
		if int(q) < n {
			inQuery[q] = true
		}
	}
	if len(inQuery) >= n {
		return nil
	}
	counts, paths := map[string]int64{}, map[string]Path{}
	for i := 0; i < walks; i++ {
		for s, v := range nb.nodes[i] {
			if !inQuery[v] {
				continue
			}
			if s > 0 {
				p := Path(nb.labels[i][:s])
				counts[p.Key()]++
				paths[p.Key()] = p
			}
			break
		}
	}
	out := make([]Mined, 0, len(counts))
	for k, c := range counts {
		out = append(out, Mined{Path: append(Path(nil), paths[k]...), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		return out[i].Path.Key() < out[j].Path.Key()
	})
	return out
}

// randomGraph has nodes nodes and edges edges over labels labels; without
// inverses, some nodes are dead ends.
func randomGraph(seed int64, nodes, edges, labels int, inverses bool) *kg.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := kg.NewBuilder(edges)
	if !inverses {
		b.DisableInverses()
	}
	for i := 0; i < nodes; i++ {
		b.Node(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(fmt.Sprintf("n%d", rng.Intn(nodes)), fmt.Sprintf("l%d", rng.Intn(labels)), fmt.Sprintf("n%d", rng.Intn(nodes)))
	}
	return b.Build()
}

// countBuilds counts bank builds for the rest of the test.
func countBuilds(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	bankBuildHook = func() { n.Add(1) }
	t.Cleanup(func() { bankBuildHook = nil })
	return &n
}

// checkMineMatchesNaive asserts that Mine equals the naive bank bit for
// bit — paths, counts and order — on g for every query, MaxLength 1–20,
// both step policies, a budget not divisible by four and its prefix
// budgets, all read from one bank build per key. It returns the number of
// paths mined at the full budget, so a caller can rule out a vacuous run.
func checkMineMatchesNaive(t *testing.T, builds *atomic.Int64, name string, g *kg.Graph, queries [][]kg.NodeID) int {
	t.Helper()
	mined := 0
	for _, maxLen := range []int{1, 2, 5, 20} {
		for _, uniform := range []bool{false, true} {
			opt := MineOptions{Walks: 2003, MaxLength: maxLen, Uniform: uniform, Seed: int64(maxLen)*31 - 7}
			nb := newNaiveBank(g, opt, opt.Walks)
			before := builds.Load()
			for qi, q := range queries {
				for _, w := range []int{opt.Walks, 1, 2, 3, 5, 1001, opt.Walks - 1} {
					o := opt
					o.Walks = w
					got, want := Mine(g, q, o), nb.mine(q, w)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s L=%d uniform=%v query %d walks %d:\n got %v\nwant %v", name, maxLen, uniform, qi, w, got, want)
					}
					if w == opt.Walks {
						mined += len(want)
					}
				}
			}
			if got := builds.Load() - before; got != 1 {
				t.Fatalf("%s L=%d uniform=%v: %d builds for one key and shrinking budgets, want 1", name, maxLen, uniform, got)
			}
		}
	}
	return mined
}

// TestMineMatchesReference: MineCtx equals the naive bank bit for bit on
// the reference graphs (flat, overlay, zero-weight ring, fallback-heavy
// clique, dead-end chain) for one-node, three-node and duplicate queries.
func TestMineMatchesReference(t *testing.T) {
	builds := countBuilds(t)
	for name, g := range refGraphs(t) {
		if checkMineMatchesNaive(t, builds, name, g, refQueries(t, name, g)) == 0 {
			t.Fatalf("%s: the reference mined nothing — the comparison is vacuous", name)
		}
	}
}

// TestMineMatchesReferenceEdges covers the option and guard corners
// against the naive bank: walk counts that split unevenly over the four
// streams, fewer walks than streams, a one-step length budget, the
// no-start-node guard (which counts distinct query nodes, so duplicates do
// not exhaust the graph), out-of-range, all-node and all-but-one queries
// on the reference graphs and on random graphs (dead ends, labels past 2⁸
// and 2¹⁶), and a budget that grows the bank.
func TestMineMatchesReferenceEdges(t *testing.T) {
	builds := countBuilds(t)

	chain := chainWithBranch()
	q := nodeID(t, chain, "q")
	all := make([]kg.NodeID, chain.NumNodes())
	for i := range all {
		all[i] = kg.NodeID(i)
	}
	cases := []struct {
		name  string
		query []kg.NodeID
		opt   MineOptions
	}{
		{"uneven split", []kg.NodeID{q}, MineOptions{Walks: 1001, Seed: 5}},
		{"streams > walks", []kg.NodeID{q}, MineOptions{Walks: 3, Seed: 5}},
		{"one walk", []kg.NodeID{q}, MineOptions{Walks: 1, Seed: 5}},
		{"one walk per stream", []kg.NodeID{q}, MineOptions{Walks: 4, Seed: 5}},
		{"one stream one walk ahead", []kg.NodeID{q}, MineOptions{Walks: 5, Seed: 5}},
		{"length 1", []kg.NodeID{q}, MineOptions{Walks: 500, MaxLength: 1, Seed: 2}},
		{"whole graph", all, MineOptions{Walks: 100, Seed: 1}},
		{"all but one", all[1:], MineOptions{Walks: 400, Seed: 1}},
		{"duplicates, |query| ≥ n", append(append([]kg.NodeID{}, all[1:]...), all[1:]...), MineOptions{Walks: 400, Seed: 1}},
	}
	for _, c := range cases {
		got, want := Mine(chain, c.query, c.opt), newNaiveBank(chain, c.opt, c.opt.Walks).mine(c.query, c.opt.Walks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, want %v", c.name, got, want)
		}
	}
	if got := Mine(chain, all, MineOptions{Walks: 100}); got != nil {
		t.Fatalf("query covering the graph mined %v, want nil", got)
	}

	graphs := refGraphs(t)
	graphs["random"] = randomGraph(1, 60, 150, 4, false)
	graphs["random-inverses"] = randomGraph(2, 40, 120, 3, true)
	graphs["random-300-labels"] = randomGraph(3, 80, 900, 300, false)
	graphs["random-66k-labels"] = randomGraph(4, 300, 50000, 1<<20, true)
	if nl := graphs["random-66k-labels"].NumLabels(); nl <= 1<<16 {
		t.Fatalf("the wide-label graph has %d labels, want > 2¹⁶", nl)
	}
	for name, g := range graphs {
		n := g.NumNodes()
		all := make([]kg.NodeID, n)
		for i := range all {
			all[i] = kg.NodeID(i)
		}
		queries := [][]kg.NodeID{{0}, {kg.NodeID(n / 2), 1, kg.NodeID(n / 2)}, {3, kg.NodeID(n + 5), 3}, all, all[1:]}
		checkMineMatchesNaive(t, builds, name, g, queries)
	}

	// A budget past the bank's rebuilds it larger; smaller ones keep reading it.
	g := graphs["random"]
	opt := MineOptions{Walks: 101, MaxLength: 7, Seed: 3}
	nb := newNaiveBank(g, opt, 5000)
	before := builds.Load()
	for _, w := range []int{101, 5000, 77, 4999} {
		o := opt
		o.Walks = w
		if got, want := Mine(g, []kg.NodeID{4, 9}, o), nb.mine([]kg.NodeID{4, 9}, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("walks %d: got %v, want %v", w, got, want)
		}
	}
	if got := builds.Load() - before; got != 2 {
		t.Fatalf("%d builds for budgets 101, 5000, 77, 4999; want 2", got)
	}

	// With BankWalks at the largest budget, rising budgets read prefixes of
	// one build.
	g = randomGraph(1, 60, 150, 4, false)
	opt.BankWalks = 5000
	before = builds.Load()
	for w := 101; w <= 106; w++ {
		o := opt
		o.Walks = w
		if got, want := Mine(g, []kg.NodeID{4, 9}, o), nb.mine([]kg.NodeID{4, 9}, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("walks %d of a 5000-walk bank: got %v, want %v", w, got, want)
		}
	}
	if got := builds.Load() - before; got != 1 {
		t.Fatalf("%d builds for budgets 101–106 with BankWalks 5000; want 1", got)
	}
}

// tvDistance is the total-variation distance between two mined path
// distributions, each normalized by its own total count.
func tvDistance(a, b []Mined) float64 {
	share := func(ms []Mined) map[string]float64 {
		var total int64
		for _, m := range ms {
			total += m.Count
		}
		out := map[string]float64{}
		for _, m := range ms {
			out[m.Path.Key()] = float64(m.Count) / float64(total)
		}
		return out
	}
	pa, pb := share(a), share(b)
	d := 0.0
	for k, p := range pa {
		d += math.Abs(p - pb[k])
	}
	for k, p := range pb {
		if _, ok := pa[k]; !ok {
			d += p
		}
	}
	return d / 2
}

// TestBankLawMatchesPaperSampler is the statistical gate: on a fixed query
// set, the bank's path counts at seed 1 are no farther from the paper's
// per-query sampler (refMine) at seed 1 than that sampler is from itself
// at seed 2, plus a slack of 0.03 in mean total-variation distance. The
// bank and refMine share their first draws at one seed, so the bank at
// seed 2 must pass the same bound.
func TestBankLawMatchesPaperSampler(t *testing.T) {
	g := gen.YAGOLike(gen.YAGOConfig{Seed: 3, Scale: 0.1}).Graph
	actors := gen.Table1["actors"]
	var queries [][]kg.NodeID
	for i := 0; i+1 < len(actors); i++ {
		queries = append(queries, []kg.NodeID{nodeID(t, g, actors[i])}, []kg.NodeID{nodeID(t, g, actors[i]), nodeID(t, g, actors[i+1])})
	}
	const slack = 0.03
	opt1, opt2 := MineOptions{Walks: 60000, Seed: 1}, MineOptions{Walks: 60000, Seed: 2}
	var bankVsRef, bank2VsRef, refVsRef float64
	for _, q := range queries {
		ref1 := refMine(g, q, opt1)
		if len(ref1) == 0 {
			t.Fatalf("query %v mined nothing — the comparison is vacuous", q)
		}
		bankVsRef += tvDistance(Mine(g, q, opt1), ref1)
		bank2VsRef += tvDistance(Mine(g, q, opt2), ref1)
		refVsRef += tvDistance(refMine(g, q, opt2), ref1)
	}
	nq := float64(len(queries))
	bankVsRef, bank2VsRef, refVsRef = bankVsRef/nq, bank2VsRef/nq, refVsRef/nq
	t.Logf("mean TV distance to refMine at seed 1 over %d queries: bank seed 1 %.4f, bank seed 2 %.4f, refMine seed 2 %.4f",
		len(queries), bankVsRef, bank2VsRef, refVsRef)
	for _, d := range []float64{bankVsRef, bank2VsRef} {
		if d > refVsRef+slack {
			t.Fatalf("bank vs refMine TV %.4f exceeds refMine's seed-to-seed %.4f + %.2f", d, refVsRef, slack)
		}
	}
}

// arena returns a bank's built bytes, copied, with its label width.
func arena(t *testing.T, g *kg.Graph, opt MineOptions) ([]byte, int) {
	t.Helper()
	opt = opt.withDefaults()
	b := bankFor(context.Background(), g, opt.bankKey(), opt.Walks, opt.Walks, nil)
	if b == nil {
		t.Fatal("no bank built")
	}
	out := append([]byte(nil), b.mem...)
	runtime.KeepAlive(b)
	return out, b.labW
}

// TestBankOverlayMatchesMaterialized: an overlay graph and its
// Materialize() build bitwise-equal banks, weighted and uniform.
func TestBankOverlayMatchesMaterialized(t *testing.T) {
	overlay := refGraphs(t)["overlay"]
	flat := overlay.Materialize()
	if flat == overlay {
		t.Fatal("the overlay graph is flat; the comparison is vacuous")
	}
	for _, opt := range []MineOptions{{Walks: 20000, Seed: 4}, {Walks: 9999, Seed: 5, Uniform: true, MaxLength: 9}} {
		a, al := arena(t, overlay, opt)
		b, bl := arena(t, flat, opt)
		if al != bl || !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: overlay bank (%d bytes) differs from the materialized graph's (%d bytes)", opt, len(a), len(b))
		}
	}
}

// cutCtx reports Canceled from its (k+1)-th Err probe on.
type cutCtx struct {
	context.Context
	left atomic.Int64
}

func (c *cutCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// sentinel carries a pointer so that it is never tiny-allocated: a tiny
// block shared with other objects may never be finalized.
type sentinel struct{ _ *int }

// armSentinel sets a finalizer that closes done on an object nothing
// references.
func armSentinel(done chan struct{}) {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) { close(done) })
}

// settleFinalizers returns once the finalizer of every object that was
// unreachable at the call has run. runtime.GC queues them all before it
// returns, and the finalizer goroutine runs the whole queue it takes
// before it takes the next, so a sentinel armed after the first one ran
// runs after every finalizer queued with the first.
func settleFinalizers() {
	for range 2 {
		done := make(chan struct{})
		armSentinel(done)
		runtime.GC()
		<-done
	}
}

// settleMapped runs the finalizers of the banks of graphs earlier tests
// dropped and returns what stays mapped. Later finalizers can only lower
// it.
func settleMapped() int64 {
	settleFinalizers()
	return mappedBytes.Load()
}

// TestBankCancelledBuildPublishesNothing: a first build cut in either
// pass returns nil, leaves the slot empty and its arena released, and the
// next call equals an uncancelled one on a fresh graph.
func TestBankCancelledBuildPublishesNothing(t *testing.T) {
	builds := countBuilds(t)
	opt := MineOptions{Walks: 3 * mineCheckInterval, Seed: 9}
	q := []kg.NodeID{2, 5}
	want := Mine(randomGraph(4, 50, 200, 3, true), q, opt)
	// Each pass probes ctx 3 times. A budget of 1 probe cuts pass 1 at its
	// second probe; a budget of 4 cuts pass 2 at its second.
	for _, probes := range []int64{1, 4} {
		g := randomGraph(4, 50, 200, 3, true)
		mapped := settleMapped()
		ctx := &cutCtx{Context: context.Background()}
		ctx.left.Store(probes)
		before := builds.Load()
		if got := MineCtx(ctx, g, q, opt); got != nil {
			t.Fatalf("cut after %d probes: mined %v, want nil", probes, got)
		}
		if builds.Load() != before+1 {
			t.Fatalf("cut after %d probes: the build never started", probes)
		}
		if b := slotOf(g).cur.Load(); b != nil {
			t.Fatalf("cut after %d probes: a bank was published", probes)
		}
		if got := mappedBytes.Load(); got > mapped {
			t.Fatalf("cut after %d probes: %d bytes mapped, want ≤ %d", probes, got, mapped)
		}
		if got := Mine(g, q, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut after %d probes: the next call mined %v, want %v", probes, got, want)
		}
	}
}

// TestBankConcurrentFirstCallsBuildOnce: first calls racing on one graph
// build one bank and all read it.
func TestBankConcurrentFirstCallsBuildOnce(t *testing.T) {
	builds := countBuilds(t)
	g := randomGraph(5, 200, 800, 5, true)
	opt := MineOptions{Walks: 20000, Seed: 2}
	q := []kg.NodeID{7, 8, 9}
	want := newNaiveBank(g, opt, opt.Walks).mine(q, opt.Walks)
	var wg sync.WaitGroup
	results := make([][]Mined, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Mine(g, q, opt)
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds for 8 concurrent first calls, want 1", got)
	}
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("caller %d mined %v, want %v", i, got, want)
		}
	}
}

// TestBankLifetimeAcrossGC: queries on graphs that are dropped the moment
// their call returns, with a collection between calls, read live arenas
// (a missing KeepAlive or an early unmap faults or corrupts them), and
// the dropped banks' arenas are unmapped once their finalizers run.
func TestBankLifetimeAcrossGC(t *testing.T) {
	opt := MineOptions{Walks: 5000, MaxLength: 6, Seed: 8}
	q := []kg.NodeID{1, 2}
	want := newNaiveBank(randomGraph(6, 100, 400, 4, true), opt, opt.Walks).mine(q, opt.Walks)
	mapped := mappedBytes.Load()
	for i := 0; i < 20; i++ {
		got := Mine(randomGraph(6, 100, 400, 4, true), q, opt)
		runtime.GC()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: mined %v, want %v", i, got, want)
		}
	}
	if got := settleMapped(); got > mapped {
		t.Fatalf("%d bank bytes still mapped after the graphs were dropped, want ≤ %d", got, mapped)
	}
}
