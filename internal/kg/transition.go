package kg

// TransitionCSR is the informativeness-weighted transition matrix of Eq. 1
// in compressed sparse row form: one probability per edge, laid out in the
// exact order of the graph's CSR edge slice, so that Probs(n)[i] is the
// probability of a walker at n taking OutEdges(n)[i].
//
// Rows are normalized to sum to 1: Probs(n)[i] = w(l_i) / wdeg(n), with a
// uniform fallback (1/deg) for nodes whose weighted out-degree is zero
// (every incident label has weight 0 — the single-label graph case), so
// that no row silently drops walk mass. Dangling nodes have empty rows.
//
// The matrix is derived data: it is built once per graph on first use and
// shared by all readers, replacing the per-edge LabelWeight and
// WeightedOutDegree lookups that previously sat inside PageRank's
// power-iteration inner loop.
type TransitionCSR struct {
	g    *Graph
	prob []float64 // len NumEdges, aligned with the graph's edge enumeration
	off  []int64   // row offsets into prob; shares the base CSR offsets when possible

	// Transpose layout for gather-style power iteration. Row i holds the
	// in-edges of node tRow[i]: sources tFrom[tOff[i]:tOff[i+1]] with
	// matching arrival probabilities in tProb, the forward transition
	// probabilities of the source edges. Rows are stored in ascending
	// in-degree order, ties broken by node ID, so that consecutive rows
	// have equal lengths and the gather's loop exits predict; within a
	// row, in-edges keep the order a row-major sweep of the forward CSR
	// meets them, which fixes every gathered sum's operation order.
	tRow  []NodeID
	tOff  []int64
	tFrom []NodeID
	tProb []float64
	// dangling lists the out-degree-zero nodes, whose mass the teleport
	// redistributes.
	dangling []NodeID
}

// Transitions returns the graph's weighted transition matrix, building it
// on first call. Safe for concurrent use; the result is shared and must
// not be modified.
func (g *Graph) Transitions() *TransitionCSR {
	g.transOnce.Do(func() { g.trans = buildTransitions(g) })
	return g.trans
}

// buildTransitions computes the probabilities and the transpose of g's
// effective adjacency: a flat CSR or an overlay view, which enumerate
// each node's edges in the same order, so an overlay's matrix is bitwise
// identical to that of a from-scratch graph at its epoch.
func buildTransitions(g *Graph) *TransitionCSR {
	n, m := g.NumNodes(), g.NumEdges()
	t := &TransitionCSR{g: g, prob: make([]float64, m), off: g.offsets}
	wdeg := g.wdeg
	if g.ov != nil {
		t.off = make([]int64, n+1)
		wdeg = g.ov.wdegs()
	}
	// inDeg counts each node's in-edges in this pass and becomes the fill
	// cursor of the node's row below.
	inDeg := make([]int64, n)
	lo := int64(0)
	for v := 0; v < n; v++ {
		adj := g.OutEdges(NodeID(v))
		hi := lo + int64(len(adj))
		if g.ov != nil {
			t.off[v+1] = hi
		}
		for _, e := range adj {
			inDeg[e.To]++
		}
		switch wd := wdeg[v]; {
		case lo == hi:
			t.dangling = append(t.dangling, NodeID(v))
		case wd > 0:
			inv := 1 / wd
			for i, e := range adj {
				t.prob[lo+int64(i)] = g.weight[e.Label] * inv
			}
		default:
			u := 1 / float64(hi-lo)
			for i := lo; i < hi; i++ {
				t.prob[i] = u
			}
		}
		lo = hi
	}
	// Order rows by in-degree with a stable counting sort over node IDs:
	// the rows of in-degree d are rows [first[d], first[d+1]).
	maxDeg := int64(0)
	for _, d := range inDeg {
		maxDeg = max(maxDeg, d)
	}
	first := make([]int, maxDeg+2)
	for _, d := range inDeg {
		first[d+1]++
	}
	t.tOff = make([]int64, n+1)
	for d := int64(0); d <= maxDeg; d++ {
		first[d+1] += first[d]
		for r := first[d]; r < first[d+1]; r++ {
			t.tOff[r+1] = t.tOff[r] + d
		}
	}
	t.tRow = make([]NodeID, n)
	for v, d := range inDeg {
		r := first[d]
		first[d]++
		t.tRow[r] = NodeID(v)
		inDeg[v] = t.tOff[r]
	}
	// Scatter the forward edges into their target rows in row-major order.
	t.tFrom = make([]NodeID, m)
	t.tProb = make([]float64, m)
	for from := 0; from < n; from++ {
		probs := t.prob[t.off[from]:t.off[from+1]]
		for i, e := range g.OutEdges(NodeID(from)) {
			pos := inDeg[e.To]
			t.tFrom[pos] = NodeID(from)
			t.tProb[pos] = probs[i]
			inDeg[e.To]++
		}
	}
	return t
}

// Probs returns the transition probabilities of node n's out-edges,
// aligned with OutEdges(n). The slice is owned by the matrix and must not
// be modified.
func (t *TransitionCSR) Probs(n NodeID) []float64 {
	return t.prob[t.off[n]:t.off[n+1]]
}

// GatherStep computes one damped power-iteration step, next = c·Ã·p, as a
// gather over the transpose layout, and returns the probability mass
// sitting on dangling (out-degree-zero) nodes. It is the saturated-
// frontier kernel of the ppr package: every entry of next is overwritten
// outright (no pre-zeroing), in row order, so the writes follow the
// in-degree ordering of the rows rather than node order; in-edge lists and
// probabilities stream linearly, and the reads of p are random. The
// dangling sum runs in node order. next must have at least NumNodes
// entries.
func (t *TransitionCSR) GatherStep(next, p []float64, c float64) (dangling float64) {
	t.gatherRows(next, p, c)
	for _, d := range t.dangling {
		dangling += p[d]
	}
	return dangling
}

// gatherRows computes every transpose row of one gather step, writing
// next[tRow[i]] for each row i.
func (t *TransitionCSR) gatherRows(next, p []float64, c float64) {
	lo := 0
	offs := t.tOff[1:]
	for i, x := range t.tRow {
		hi := int(offs[i])
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
