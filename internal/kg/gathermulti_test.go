package kg

import (
	"math/rand"
	"testing"
)

// packColumns interleaves cols (each a dense n-vector) into the blocked
// layout GatherStepMulti expects.
func packColumns(cols [][]float64, n int) []float64 {
	b := len(cols)
	pm := make([]float64, n*b)
	for j, col := range cols {
		for x := 0; x < n; x++ {
			pm[x*b+j] = col[x]
		}
	}
	return pm
}

// TestGatherStepMultiMatchesSerialBitwise: every block width must
// reproduce b independent serial GatherStep runs bit for bit — the
// invariant the whole batched PPR path rests on.
func TestGatherStepMultiMatchesSerialBitwise(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := transitionGraph(int64(trial), 30+trial*40, 100+trial*150)
		tr := g.Transitions()
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		for b := 1; b <= MaxGatherBlock; b++ {
			cols := make([][]float64, b)
			want := make([][]float64, b)
			wantDangling := make([]float64, b)
			for j := range cols {
				cols[j] = make([]float64, n)
				for x := range cols[j] {
					cols[j][x] = rng.Float64()
				}
				want[j] = make([]float64, n)
				wantDangling[j] = tr.GatherStep(want[j], cols[j], 0.8)
			}
			pm := packColumns(cols, n)
			next := make([]float64, n*b)
			for i := range next {
				next[i] = -1 // stale garbage every row must overwrite
			}
			dangling := make([]float64, b)
			tr.GatherStepMulti(next, pm, 0.8, b, dangling)
			for j := 0; j < b; j++ {
				if dangling[j] != wantDangling[j] {
					t.Fatalf("trial %d b=%d col %d: dangling %v != %v",
						trial, b, j, dangling[j], wantDangling[j])
				}
				for x := 0; x < n; x++ {
					if next[x*b+j] != want[j][x] {
						t.Fatalf("trial %d b=%d col %d row %d: %v != serial %v",
							trial, b, j, x, next[x*b+j], want[j][x])
					}
				}
			}
		}
	}
}
