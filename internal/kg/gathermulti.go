// The blocked multi-vector gather. No request runs it: ppr solves one
// seed at a time through GatherStep.

package kg

// MaxGatherBlock is the widest vector block GatherStepMulti accepts. Eight
// float64 columns are exactly one 64-byte cache line per node, so a block
// walks the edge stream once while every per-node probability read lands
// in a single line — the sweet spot for the memory-bandwidth-bound kernel.
// bench/replay.go's kernel probe is its only caller; it goes with that probe.
const MaxGatherBlock = 8

// GatherStepMulti computes one damped power-iteration step, next = c·Ã·p,
// for b personalization vectors at once. Vectors are stored interleaved
// ("blocked") in row order: column j of transpose row r lives at p[r*b+j],
// and likewise in next.
// The edge stream (in-edge lists and probabilities) is read once for the
// whole block instead of once per vector, and the b reads of a source
// node's block are contiguous.
//
// Each column's arithmetic replicates GatherStep exactly: the same four
// running sums over the same edge order, combined in the same tree, so
// column j of the result is bitwise identical to a serial GatherStep over
// that vector alone. dangling must hold at least b entries; it is
// overwritten with the per-column probability mass sitting on dangling
// nodes, accumulated in the same node order as the serial kernel.
//
// b must be in [1, MaxGatherBlock]; next and p must hold NumNodes()*b
// entries. A one-column block is a plain vector, so it runs the serial
// kernel, which skips the column loop and the stride arithmetic.
// bench/replay.go's kernel probe is its only caller; it goes with that probe.
func (t *TransitionCSR) GatherStepMulti(next, p []float64, c float64, b int, dangling []float64) {
	switch b {
	case 1:
		t.gatherRows(next, p, c)
	case MaxGatherBlock:
		t.gatherRowsMulti8(next, p, c)
	default:
		t.gatherRowsMulti(next, p, c, b)
	}
	clear(dangling[:b])
	for _, r := range t.dangling {
		blk := p[int(r)*b : int(r)*b+b]
		for j := 0; j < b; j++ {
			dangling[j] += blk[j]
		}
	}
}

// gatherRowsMulti computes every transpose row of one blocked gather step,
// writing row r's block for each row r. Columns are swept one at a
// time inside each row with the serial kernel's four register
// accumulators; the row's edge list, probabilities, and the source blocks'
// cache lines stay hot across the b column passes, so the memory system
// sees each line once per block rather than once per vector.
func (t *TransitionCSR) gatherRowsMulti(next, p []float64, c float64, b int) {
	r, lo := 0, 0
	for _, run := range t.runs {
		for ; r < run.end; r++ {
			hi := lo + run.deg
			row := t.tFrom[lo:hi]
			pr := t.tProb[lo:hi:hi][:len(row)]
			out := next[r*b : r*b+b : r*b+b]
			for j := range out {
				var acc0, acc1, acc2, acc3 float64
				k := 0
				for ; k+3 < len(row); k += 4 {
					acc0 += float64(p[int(row[k])*b+j] * pr[k])
					acc1 += float64(p[int(row[k+1])*b+j] * pr[k+1])
					acc2 += float64(p[int(row[k+2])*b+j] * pr[k+2])
					acc3 += float64(p[int(row[k+3])*b+j] * pr[k+3])
				}
				for ; k < len(row); k++ {
					acc0 += float64(p[int(row[k])*b+j] * pr[k])
				}
				out[j] = c * ((acc0 + acc1) + (acc2 + acc3))
			}
			lo = hi
		}
	}
}

// gatherRowsMulti8 is gatherRowsMulti at the full block width, where the
// constant stride turns every source-block index into a shift.
func (t *TransitionCSR) gatherRowsMulti8(next, p []float64, c float64) {
	const b = MaxGatherBlock
	r, lo := 0, 0
	for _, run := range t.runs {
		for ; r < run.end; r++ {
			hi := lo + run.deg
			row := t.tFrom[lo:hi]
			pr := t.tProb[lo:hi:hi][:len(row)]
			out := next[r*b : r*b+b : r*b+b]
			for j := range out {
				var acc0, acc1, acc2, acc3 float64
				k := 0
				for ; k+3 < len(row); k += 4 {
					acc0 += float64(p[int(row[k])*b+j] * pr[k])
					acc1 += float64(p[int(row[k+1])*b+j] * pr[k+1])
					acc2 += float64(p[int(row[k+2])*b+j] * pr[k+2])
					acc3 += float64(p[int(row[k+3])*b+j] * pr[k+3])
				}
				for ; k < len(row); k++ {
					acc0 += float64(p[int(row[k])*b+j] * pr[k])
				}
				out[j] = c * ((acc0 + acc1) + (acc2 + acc3))
			}
			lo = hi
		}
	}
}
