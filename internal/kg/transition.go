package kg

// TransitionCSR is the informativeness-weighted transition matrix of Eq. 1,
// stored as its transpose for gather-style power iteration.
//
// A walker at n takes an out-edge labelled l with probability
// Prob(n, l) = w(l) · (1/wdeg(n)), with a uniform fallback (1/deg) for
// nodes whose weighted out-degree is zero (every incident label has
// weight 0 — the single-label graph case), so that no row silently drops
// walk mass. The matrix keeps one normalizer per node, not one
// probability per forward edge; the frontier sweep forms each product
// itself.
//
// The transpose is stored in row order. Row i of the transpose holds the
// in-edges of the node n with Row(n) = i, and the dense kernels
// (GatherStep, GatherStepMulti) read and write vectors in that order:
// slot i of a row-ordered vector is node n's entry. ToRows and FromRows
// convert between node order and row order. Rows are sorted by ascending
// in-degree, ties broken by node ID, so the rows form runs of equal
// in-degree, and the gather handles one run at a time. Within a row,
// in-edges keep the order a row-major sweep of the forward CSR meets
// them, which fixes every gathered sum's operation order.
//
// The matrix is derived data: it is built once per graph on first use and
// shared by all readers, replacing the per-edge LabelWeight and
// WeightedOutDegree lookups that previously sat inside PageRank's
// power-iteration inner loop.
type TransitionCSR struct {
	g    *Graph
	wdeg []float64 // the graph's weighted out-degrees; 0 on uniform-fallback rows
	inv  []float64 // per node: 1/wdeg, or 1/deg on uniform-fallback rows

	// rowOf maps a node to its transpose row. runs splits the rows into
	// runs of equal in-degree: run k holds rows [runs[k-1].end,
	// runs[k].end), each with deg in-edges, stored one row after another
	// in tFrom and tProb. tFrom holds each in-edge's source as that
	// source's row, tProb its forward transition probability.
	rowOf []uint32
	runs  []degreeRun
	tFrom []uint32
	tProb []float64
	// dangling lists the rows of the out-degree-zero nodes, whose mass the
	// teleport redistributes, in node order.
	dangling []uint32
}

// degreeRun is a run of consecutive transpose rows of one in-degree.
type degreeRun struct {
	deg, end int
}

// Transitions returns the graph's weighted transition matrix, building it
// on first call. Safe for concurrent use; the result is shared and must
// not be modified.
func (g *Graph) Transitions() *TransitionCSR {
	g.transOnce.Do(func() { g.trans = buildTransitions(g) })
	return g.trans
}

// buildTransitions computes the normalizers and the transpose of g's
// effective adjacency: a flat CSR or an overlay view, which enumerate
// each node's edges in the same order, so an overlay's matrix is bitwise
// identical to that of a from-scratch graph at its epoch.
func buildTransitions(g *Graph) *TransitionCSR {
	n, m := g.NumNodes(), g.NumEdges()
	t := &TransitionCSR{g: g, wdeg: g.wdeg, inv: make([]float64, n)}
	if g.ov != nil {
		t.wdeg = g.ov.wdegs()
	}
	// inDeg counts each node's in-edges in this pass and becomes the fill
	// cursor of the node's row below.
	inDeg := make([]int, n)
	for v := 0; v < n; v++ {
		adj := g.OutEdges(NodeID(v))
		for _, e := range adj {
			inDeg[e.To]++
		}
		switch wd := t.wdeg[v]; {
		case len(adj) == 0:
		case wd > 0:
			t.inv[v] = 1 / wd
		default:
			t.inv[v] = 1 / float64(len(adj))
		}
	}
	// Order rows by in-degree with a stable counting sort over node IDs:
	// the rows of in-degree d are rows [first[d], first[d+1]), and their
	// edges start at edge[d].
	maxDeg := 0
	for _, d := range inDeg {
		maxDeg = max(maxDeg, d)
	}
	first := make([]int, maxDeg+2)
	for _, d := range inDeg {
		first[d+1]++
	}
	edge := make([]int, maxDeg+1)
	for d, at := 0, 0; d <= maxDeg; d++ {
		rows := first[d+1]
		first[d+1] += first[d]
		edge[d] = at
		at += rows * d
		if rows > 0 {
			t.runs = append(t.runs, degreeRun{deg: d, end: first[d+1]})
		}
	}
	t.rowOf = make([]uint32, n)
	for v, d := range inDeg {
		t.rowOf[v] = uint32(first[d])
		first[d]++
		inDeg[v] = edge[d]
		edge[d] += d
	}
	// Scatter the forward edges into their target rows in row-major order.
	t.tFrom = make([]uint32, m)
	t.tProb = make([]float64, m)
	for from := 0; from < n; from++ {
		adj := g.OutEdges(NodeID(from))
		if len(adj) == 0 {
			t.dangling = append(t.dangling, t.rowOf[from])
		}
		for _, e := range adj {
			pos := inDeg[e.To]
			t.tFrom[pos] = t.rowOf[from]
			t.tProb[pos] = t.Prob(NodeID(from), e.Label)
			inDeg[e.To]++
		}
	}
	return t
}

// Prob returns the probability of a walker at node n taking one of its
// out-edges labelled l. The explicit conversion rounds the product, so no
// architecture fuses it into a caller's add.
func (t *TransitionCSR) Prob(n NodeID, l LabelID) float64 {
	if t.wdeg[n] > 0 {
		return float64(t.g.weight[l] * t.inv[n])
	}
	return t.inv[n]
}

// Row returns node n's transpose row: its slot in a row-ordered vector.
func (t *TransitionCSR) Row(n NodeID) int { return int(t.rowOf[n]) }

// ToRows writes the node-ordered vector src into dst in row order:
// dst[Row(n)] = src[n]. Both hold NumNodes entries and must not overlap.
func (t *TransitionCSR) ToRows(dst, src []float64) {
	for v, r := range t.rowOf {
		dst[r] = src[v]
	}
}

// FromRows writes the row-ordered vector src into dst in node order:
// dst[n] = src[Row(n)]. Both hold NumNodes entries and must not overlap.
func (t *TransitionCSR) FromRows(dst, src []float64) {
	for v, r := range t.rowOf {
		dst[v] = src[r]
	}
}

// GatherStep computes one damped power-iteration step, next = c·Ã·p, as a
// gather over the transpose, and returns the probability mass sitting on
// dangling (out-degree-zero) nodes. p and next are row-ordered (see
// ToRows) and hold at least NumNodes entries. It is the saturated-
// frontier kernel of the ppr package: every entry of next is overwritten
// outright (no pre-zeroing), front to back, while the in-edge lists and
// probabilities stream linearly and the reads of p are random. The
// dangling sum runs in node order.
func (t *TransitionCSR) GatherStep(next, p []float64, c float64) (dangling float64) {
	t.gatherRows(next, p, c)
	for _, r := range t.dangling {
		dangling += p[r]
	}
	return dangling
}

// gatherRows computes every transpose row of one gather step, one run of
// equal in-degree at a time. Each row's sum is that of four running sums
// over its in-edges — acc0 takes edges 0, 4, 8, …, acc1 edges 1, 5, …,
// and so on, then c·((acc0+acc1)+(acc2+acc3)) — which breaks the
// accumulator dependency chain of a long row. Rows of in-degree 0–5 take
// closed forms of that tree: an accumulator no edge reaches is 0, and
// 0 + x = x for the non-negative terms of a PageRank vector, so each
// closed form returns the loop's bits. The explicit conversions round
// every product before it is added, so no architecture fuses them.
func (t *TransitionCSR) gatherRows(next, p []float64, c float64) {
	r, lo := 0, 0
	for _, run := range t.runs {
		d := run.deg
		out := next[r:run.end]
		hi := lo + len(out)*d
		src := t.tFrom[lo:hi]
		pr := t.tProb[lo:hi:hi][:len(src)]
		r, lo = run.end, hi
		switch d {
		case 0:
			z := c * 0
			for i := range out {
				out[i] = z
			}
		case 1:
			for i, s := range src[:len(out)] {
				out[i] = c * float64(p[s]*pr[i])
			}
		case 2:
			for i := range out {
				s, w := src[2*i:2*i+2:2*i+2], pr[2*i:2*i+2:2*i+2]
				out[i] = c * (float64(p[s[0]]*w[0]) + float64(p[s[1]]*w[1]))
			}
		case 3:
			for i := range out {
				s, w := src[3*i:3*i+3:3*i+3], pr[3*i:3*i+3:3*i+3]
				out[i] = c * ((float64(p[s[0]]*w[0]) + float64(p[s[1]]*w[1])) + float64(p[s[2]]*w[2]))
			}
		case 4:
			for i := range out {
				s, w := src[4*i:4*i+4:4*i+4], pr[4*i:4*i+4:4*i+4]
				out[i] = c * ((float64(p[s[0]]*w[0]) + float64(p[s[1]]*w[1])) +
					(float64(p[s[2]]*w[2]) + float64(p[s[3]]*w[3])))
			}
		case 5:
			for i := range out {
				s, w := src[5*i:5*i+5:5*i+5], pr[5*i:5*i+5:5*i+5]
				out[i] = c * (((float64(p[s[0]]*w[0]) + float64(p[s[4]]*w[4])) + float64(p[s[1]]*w[1])) +
					(float64(p[s[2]]*w[2]) + float64(p[s[3]]*w[3])))
			}
		default:
			for i := range out {
				row := src[:d:d]
				w := pr[:d:d][:len(row)]
				src, pr = src[d:], pr[d:]
				var acc0, acc1, acc2, acc3 float64
				k := 0
				for ; k+3 < len(row); k += 4 {
					acc0 += float64(p[row[k]] * w[k])
					acc1 += float64(p[row[k+1]] * w[k+1])
					acc2 += float64(p[row[k+2]] * w[k+2])
					acc3 += float64(p[row[k+3]] * w[k+3])
				}
				for ; k < len(row); k++ {
					acc0 += float64(p[row[k]] * w[k])
				}
				out[i] = c * ((acc0 + acc1) + (acc2 + acc3))
			}
		}
	}
}
