package kg

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTransitions is a verbatim copy of the row-major transpose layout the
// gather kernels read before transpose rows were stored in in-degree
// order: row x of the transpose is node x's in-edge list, in the order a
// row-major sweep of the forward CSR meets them. The build is the overlay
// builder's, reading adjacency through OutEdges so that one copy serves
// flat graphs and overlay views alike.
type refTransitions struct {
	n        int
	prob     []float64
	off      []int64
	tOff     []int64
	tFrom    []NodeID
	tProb    []float64
	dangling []NodeID
}

func refBuildTransitions(g *Graph) *refTransitions {
	n := g.NumNodes()
	t := &refTransitions{
		n:    n,
		prob: make([]float64, g.NumEdges()),
		off:  make([]int64, n+1),
	}
	for v := 0; v < n; v++ {
		adj := g.OutEdges(NodeID(v))
		lo := t.off[v]
		hi := lo + int64(len(adj))
		t.off[v+1] = hi
		if lo == hi {
			t.dangling = append(t.dangling, NodeID(v))
			continue
		}
		if wd := g.WeightedOutDegree(NodeID(v)); wd > 0 {
			inv := 1 / wd
			for i, e := range adj {
				t.prob[lo+int64(i)] = g.weight[e.Label] * inv
			}
		} else {
			u := 1 / float64(hi-lo)
			for i := lo; i < hi; i++ {
				t.prob[i] = u
			}
		}
	}
	// Transpose by counting sort on edge targets, in the same
	// row-major enumeration order as the base builder.
	t.tOff = make([]int64, n+1)
	t.tFrom = make([]NodeID, g.NumEdges())
	t.tProb = make([]float64, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, e := range g.OutEdges(NodeID(v)) {
			t.tOff[e.To+1]++
		}
	}
	for v := 1; v <= n; v++ {
		t.tOff[v] += t.tOff[v-1]
	}
	cursor := make([]int64, n)
	for from := 0; from < n; from++ {
		for i, e := range g.OutEdges(NodeID(from)) {
			pos := t.tOff[e.To] + cursor[e.To]
			t.tFrom[pos] = NodeID(from)
			t.tProb[pos] = t.prob[t.off[from]+int64(i)]
			cursor[e.To]++
		}
	}
	return t
}

func (t *refTransitions) gatherStep(next, p []float64, c float64) (dangling float64) {
	t.gatherRows(next, p, c, 0, t.n)
	for _, d := range t.dangling {
		dangling += p[d]
	}
	return dangling
}

func (t *refTransitions) gatherRows(next, p []float64, c float64, rowLo, rowHi int) {
	lo := int(t.tOff[rowLo])
	for x := rowLo; x < rowHi; x++ {
		hi := int(t.tOff[x+1])
		row := t.tFrom[lo:hi]
		pr := t.tProb[lo:hi:hi][:len(row)]
		// Four running sums break the accumulator dependency chain (the
		// loop is FMA-latency-bound otherwise).
		var acc0, acc1, acc2, acc3 float64
		k := 0
		for ; k+3 < len(row); k += 4 {
			acc0 += p[row[k]] * pr[k]
			acc1 += p[row[k+1]] * pr[k+1]
			acc2 += p[row[k+2]] * pr[k+2]
			acc3 += p[row[k+3]] * pr[k+3]
		}
		for ; k < len(row); k++ {
			acc0 += p[row[k]] * pr[k]
		}
		next[x] = c * ((acc0 + acc1) + (acc2 + acc3))
		lo = hi
	}
}

func (t *refTransitions) gatherStepMulti(next, p []float64, c float64, b int, dangling []float64) {
	t.gatherRowsMulti(next, p, c, b, 0, t.n)
	clear(dangling[:b])
	for _, d := range t.dangling {
		blk := p[int(d)*b : int(d)*b+b]
		for j := 0; j < b; j++ {
			dangling[j] += blk[j]
		}
	}
}

func (t *refTransitions) gatherRowsMulti(next, p []float64, c float64, b int, rowLo, rowHi int) {
	if b == MaxGatherBlock {
		t.gatherRowsMulti8(next, p, c, rowLo, rowHi)
		return
	}
	var accBuf [4 * MaxGatherBlock]float64
	acc := accBuf[:4*b]
	lo := int(t.tOff[rowLo])
	for x := rowLo; x < rowHi; x++ {
		hi := int(t.tOff[x+1])
		row := t.tFrom[lo:hi]
		pr := t.tProb[lo:hi:hi][:len(row)]
		clear(acc)
		k := 0
		for ; k+3 < len(row); k += 4 {
			i0, w0 := int(row[k])*b, pr[k]
			i1, w1 := int(row[k+1])*b, pr[k+1]
			i2, w2 := int(row[k+2])*b, pr[k+2]
			i3, w3 := int(row[k+3])*b, pr[k+3]
			for j := 0; j < b; j++ {
				a := acc[4*j : 4*j+4 : 4*j+4]
				a[0] += p[i0+j] * w0
				a[1] += p[i1+j] * w1
				a[2] += p[i2+j] * w2
				a[3] += p[i3+j] * w3
			}
		}
		for ; k < len(row); k++ {
			i0, w0 := int(row[k])*b, pr[k]
			for j := 0; j < b; j++ {
				acc[4*j] += p[i0+j] * w0
			}
		}
		out := next[x*b : x*b+b]
		for j := 0; j < b; j++ {
			out[j] = c * ((acc[4*j] + acc[4*j+1]) + (acc[4*j+2] + acc[4*j+3]))
		}
		lo = hi
	}
}

func (t *refTransitions) gatherRowsMulti8(next, p []float64, c float64, rowLo, rowHi int) {
	const b = MaxGatherBlock
	lo := int(t.tOff[rowLo])
	for x := rowLo; x < rowHi; x++ {
		hi := int(t.tOff[x+1])
		row := t.tFrom[lo:hi]
		pr := t.tProb[lo:hi:hi][:len(row)]
		out := next[x*b : x*b+b : x*b+b]
		for j := 0; j < b; j++ {
			var acc0, acc1, acc2, acc3 float64
			k := 0
			for ; k+3 < len(row); k += 4 {
				acc0 += p[int(row[k])*b+j] * pr[k]
				acc1 += p[int(row[k+1])*b+j] * pr[k+1]
				acc2 += p[int(row[k+2])*b+j] * pr[k+2]
				acc3 += p[int(row[k+3])*b+j] * pr[k+3]
			}
			for ; k < len(row); k++ {
				acc0 += p[int(row[k])*b+j] * pr[k]
			}
			out[j] = c * ((acc0 + acc1) + (acc2 + acc3))
		}
		lo = hi
	}
}

// refGraph builds a random graph with the shapes the gather kernels must
// survive: isolated nodes (in-degree-0 and dangling rows), a hub that
// receives a fixed share of all edges, and — when labels is 1 and
// inverses are off — a single label of weight 0, whose rows take the
// uniform fallback.
func refGraph(rng *rand.Rand, nodes, edges, labels int, inverses bool, hubShare float64) *Graph {
	b := NewBuilder(edges)
	if !inverses {
		b.DisableInverses()
	}
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < nodes; i++ {
		b.Node(name(i))
	}
	for i := 0; i < edges; i++ {
		to := rng.Intn(nodes / 2) // the upper half only ever sends
		if rng.Float64() < hubShare {
			to = 0
		}
		from := rng.Intn(nodes)
		if from%5 == 4 {
			continue // every fifth node never sends: dangling unless mirrored
		}
		b.AddEdge(name(from), fmt.Sprintf("l%d", rng.Intn(labels)), name(to))
	}
	return b.Build()
}

// refOverlay applies a random sequence of add, delete and compact steps to
// g and returns the final view, an overlay unless the last step compacted.
func refOverlay(t *testing.T, rng *rand.Rand, g *Graph, steps int) *Graph {
	v := NewVersioned(g, VersionedOptions{CompactThreshold: -1})
	for s := 0; s < steps; s++ {
		cur := v.View().G
		node := func() string { return cur.NodeName(NodeID(rng.Intn(cur.NumNodes()))) }
		if rng.Intn(4) == 0 {
			v.Compact()
			continue
		}
		var adds, dels []Triple
		for i := 0; i < 1+rng.Intn(20); i++ {
			from := NodeID(rng.Intn(cur.NumNodes()))
			if adj := cur.OutEdges(from); len(adj) > 0 && rng.Intn(2) == 0 {
				e := adj[rng.Intn(len(adj))]
				dels = append(dels, Triple{cur.NodeName(from), cur.LabelName(e.Label), cur.NodeName(e.To)})
				continue
			}
			to := node()
			if rng.Intn(3) == 0 {
				to = fmt.Sprintf("new%d-%d", s, i)
			}
			adds = append(adds, Triple{cur.NodeName(from), fmt.Sprintf("l%d", rng.Intn(3)), to})
		}
		if _, err := v.Apply(adds, dels); err != nil {
			t.Fatal(err)
		}
	}
	return v.View().G
}

// TestGatherMatchesRowMajorReference: both gather entry points —
// GatherStep, and GatherStepMulti at every block width — reproduce the
// row-major reference kernels bit for bit, over the next vector's stale
// contents, on flat graphs and on overlay views. The kernels read and
// write row order, so their inputs go through ToRows and their outputs
// back through FromRows.
func TestGatherMatchesRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	type shape struct {
		nodes, edges, labels int
		inverses             bool
		hubShare             float64
	}
	shapes := []shape{
		{12, 30, 3, true, 0},
		{40, 120, 1, false, 0},    // one label of weight 0: uniform rows
		{200, 900, 4, false, 0.3}, // in-degree-0 rows and a hub
		{300, 1500, 1, true, 0.1},
		{3000, 12000, 5, true, 0.05}, // clears the parallel threshold
	}
	for si, sh := range shapes {
		flat := refGraph(rng, sh.nodes, sh.edges, sh.labels, sh.inverses, sh.hubShare)
		graphs := map[string]*Graph{"flat": flat}
		for k := 0; k < 3; k++ {
			graphs[fmt.Sprintf("overlay%d", k)] = refOverlay(t, rng, flat, 2+4*k)
		}
		for name, g := range graphs {
			requireGatherMatchesRef(t, fmt.Sprintf("shape %d %s", si, name), g, rng)
		}
	}
}

// TestGatherCoversEveryDegreeClass: the gather's closed forms (in-degree
// 0–5), its loop (6 and up) and a hub row, beside dangling rows, on a
// weighted graph and on a one-label graph whose sending rows all take the
// uniform fallback, reproduce the row-major reference bit for bit.
func TestGatherCoversEveryDegreeClass(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, labels := range []int{3, 1} {
		g := classGraph(rng, labels)
		tr := g.Transitions()
		rows := map[int]int{}
		for i, run := range tr.runs {
			start := 0
			if i > 0 {
				start = tr.runs[i-1].end
			}
			rows[run.deg] = run.end - start
		}
		for d := 0; d <= 9; d++ {
			if rows[d] == 0 {
				t.Fatalf("labels=%d: no row of in-degree %d (runs %v)", labels, d, tr.runs)
			}
		}
		if hub := tr.runs[len(tr.runs)-1].deg; hub < 40 {
			t.Fatalf("labels=%d: largest in-degree %d, want a hub", labels, hub)
		}
		if len(tr.dangling) == 0 {
			t.Fatalf("labels=%d: no dangling row", labels)
		}
		uniform := 0
		for v := 0; v < g.NumNodes(); v++ {
			if len(g.OutEdges(NodeID(v))) > 0 && g.WeightedOutDegree(NodeID(v)) == 0 {
				uniform++
			}
		}
		if (uniform > 0) != (labels == 1) {
			t.Fatalf("labels=%d: %d uniform-fallback rows", labels, uniform)
		}
		requireGatherMatchesRef(t, fmt.Sprintf("labels=%d", labels), g, rng)
	}
}

// classGraph builds a graph with no mirror edges whose transpose holds
// perClass rows of every in-degree 0 through 9 and one hub that every
// sender feeds. The targets never send, and neither does every fifth
// sender, so they are dangling rows; the senders receive nothing, so they
// are in-degree-0 rows. labels = 1 leaves one label of weight 0, whose
// rows take the uniform fallback.
func classGraph(rng *rand.Rand, labels int) *Graph {
	const perClass, senders = 7, 60
	const targets = 10 * perClass
	b := NewBuilder(0).DisableInverses()
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	hub := targets
	for i := 0; i <= targets+senders; i++ {
		b.Node(name(i))
	}
	label := func() string { return fmt.Sprintf("l%d", rng.Intn(labels)) }
	live := make([]int, 0, senders)
	for s := hub + 1; s <= hub+senders; s++ {
		if s%5 != 0 {
			live = append(live, s)
		}
	}
	for to := 0; to < targets; to++ {
		for _, k := range rng.Perm(len(live))[:to/perClass] {
			b.AddEdge(name(live[k]), label(), name(to))
		}
	}
	for _, s := range live {
		b.AddEdge(name(s), label(), name(hub))
	}
	return b.Build()
}

// gatherInNodeOrder runs GatherStep on the node-ordered vector p over
// the row-ordered next, whatever it holds, and returns the dangling mass
// and the step's result in node order.
func gatherInNodeOrder(tr *TransitionCSR, next, p []float64, c float64) (float64, []float64) {
	pRows := make([]float64, len(p))
	tr.ToRows(pRows, p)
	d := tr.GatherStep(next, pRows, c)
	tr.FromRows(pRows, next)
	return d, pRows
}

// gatherMultiInNodeOrder runs GatherStepMulti on the node-ordered block
// pm of width b over the row-ordered next, whatever it holds, and returns
// the step's result in node order.
func gatherMultiInNodeOrder(tr *TransitionCSR, next, pm []float64, c float64, b int, dangling []float64) []float64 {
	tr.GatherStepMulti(next, blockRows(tr, pm, b, true), c, b, dangling)
	return blockRows(tr, next, b, false)
}

// blockRows permutes a blocked vector of width b into row order (toRows)
// or back into node order.
func blockRows(tr *TransitionCSR, pm []float64, b int, toRows bool) []float64 {
	out := make([]float64, len(pm))
	for v := range tr.rowOf {
		r := tr.Row(NodeID(v))
		if toRows {
			copy(out[r*b:r*b+b], pm[v*b:v*b+b])
		} else {
			copy(out[v*b:v*b+b], pm[r*b:r*b+b])
		}
	}
	return out
}

func requireGatherMatchesRef(t *testing.T, label string, g *Graph, rng *rand.Rand) {
	t.Helper()
	tr, ref := g.Transitions(), refBuildTransitions(g)
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		want := ref.prob[ref.off[v]:ref.off[v+1]]
		for i, e := range g.OutEdges(NodeID(v)) {
			if got := tr.Prob(NodeID(v), e.Label); got != want[i] {
				t.Fatalf("%s: node %d prob %d = %v, reference %v", label, v, i, got, want[i])
			}
		}
	}
	stale := func(size int) []float64 {
		out := make([]float64, size)
		for i := range out {
			out[i] = rng.NormFloat64() * 1e6
		}
		return out
	}
	const c = 0.85
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64()
	}
	want := make([]float64, n)
	wantD := ref.gatherStep(want, p, c)
	check := func(kernel string, next []float64, d float64) {
		t.Helper()
		if d != wantD {
			t.Fatalf("%s %s: dangling %v, reference %v", label, kernel, d, wantD)
		}
		for x := range want {
			if next[x] != want[x] {
				t.Fatalf("%s %s: row %d = %v, reference %v", label, kernel, x, next[x], want[x])
			}
		}
	}
	d, next := gatherInNodeOrder(tr, stale(n), p, c)
	check("GatherStep", next, d)
	for b := 1; b <= MaxGatherBlock; b++ {
		pm := make([]float64, n*b)
		for i := range pm {
			pm[i] = rng.Float64()
		}
		wantM := make([]float64, n*b)
		wantDM := make([]float64, b)
		ref.gatherStepMulti(wantM, pm, c, b, wantDM)
		d := stale(b)
		nextM := gatherMultiInNodeOrder(tr, stale(n*b), pm, c, b, d)
		for j := 0; j < b; j++ {
			if d[j] != wantDM[j] {
				t.Fatalf("%s GatherStepMulti(b=%d): dangling col %d = %v, reference %v", label, b, j, d[j], wantDM[j])
			}
		}
		for i := range wantM {
			if nextM[i] != wantM[i] {
				t.Fatalf("%s GatherStepMulti(b=%d): slot %d = %v, reference %v", label, b, i, nextM[i], wantM[i])
			}
		}
	}
}
