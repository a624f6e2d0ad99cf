package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/kg"
)

// partialLabels replicates CompareSets' deterministic label enumeration
// (LabelsOf over query ∪ cset, inverse labels dropped per opt) so tests
// can check prefix consistency of a degraded run.
func partialLabels(g *kg.Graph, query, cset []kg.NodeID, skipInverse bool) []kg.LabelID {
	both := append(append([]kg.NodeID(nil), query...), cset...)
	labels := g.LabelsOf(both)
	if skipInverse {
		kept := labels[:0]
		for _, l := range labels {
			if !g.IsInverse(l) {
				kept = append(kept, l)
			}
		}
		labels = kept
	}
	return labels
}

// TestCompareSetsPartial: cancelling a Partial comparison returns the
// labels tested so far — exactly the first Tested labels of the
// enumeration order, each record bitwise identical to its slot in the
// uncut run — alongside a *PartialError that unwraps to the ctx error.
func TestCompareSetsPartial(t *testing.T) {
	g, query := leadersGraph()
	cset := peerContext(g)
	full := compareSets(t, g, query, cset, Options{Seed: 7})
	labels := partialLabels(g, query, cset, false)
	if len(labels) < 3 {
		t.Fatalf("test graph too small: %d labels", len(labels))
	}

	const cutAfter = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tested := 0
	testLabelHook = func() {
		if tested++; tested == cutAfter {
			cancel()
		}
	}
	partial, err := CompareSets(ctx, g, query, cset, Options{Seed: 7, Partial: true})
	testLabelHook = nil

	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PartialError does not unwrap to context.Canceled: %v", err)
	}
	if pe.Tested != cutAfter || pe.Total != len(labels) {
		t.Fatalf("PartialError counts %d/%d, want %d/%d", pe.Tested, pe.Total, cutAfter, len(labels))
	}
	checkPrefix(t, partial, full, labels[:pe.Tested])
}

// checkPrefix fails unless partial holds exactly one record per label of
// prefix, each DeepEqual to the full run's record for that label.
func checkPrefix(t *testing.T, partial, full []Characteristic, prefix []kg.LabelID) {
	t.Helper()
	if len(partial) != len(prefix) {
		t.Fatalf("%d partial records, want the first %d labels", len(partial), len(prefix))
	}
	byLabel := make(map[kg.LabelID]Characteristic, len(full))
	for _, c := range full {
		byLabel[c.Label] = c
	}
	seen := make(map[kg.LabelID]bool, len(partial))
	for _, c := range partial {
		seen[c.Label] = true
		if !reflect.DeepEqual(c, byLabel[c.Label]) {
			t.Fatalf("degraded record for %q differs from the uncut run", c.Name)
		}
	}
	for i, l := range prefix {
		if !seen[l] {
			t.Fatalf("tested set is not a prefix: enumeration slot %d (label %d) missing", i, l)
		}
	}
}

// TestFindNCPartial: the full pipeline surfaces a comparison-stage cut as
// a Result carrying the selected context plus the tested prefix — exactly
// the first Tested labels, each bitwise the full run's — and a
// *PartialError; without Options.Partial the same cut stays
// all-or-nothing.
func TestFindNCPartial(t *testing.T) {
	g, query := leadersGraph()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tested atomic.Int64
	testLabelHook = func() {
		if tested.Add(1) == 1 {
			cancel()
		}
	}
	defer func() { testLabelHook = nil }()
	opt := Options{Seed: 7, ContextSize: 10}
	partialOpt := opt
	partialOpt.Partial = true
	res, err := FindNC(ctx, g, query, partialOpt)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(res.Context) == 0 {
		t.Fatal("degraded Result lost its context")
	}
	if len(res.Characteristics) != pe.Tested || pe.Tested != 1 {
		t.Fatalf("%d characteristics, Tested=%d, want 1", len(res.Characteristics), pe.Tested)
	}
	testLabelHook = nil
	full := findNC(t, g, query, opt)
	checkPrefix(t, res.Characteristics, full.Characteristics,
		partialLabels(g, query, full.ContextIDs(), false)[:pe.Tested])

	// Same cut without Partial: bare ctx error, no result.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	tested.Store(0)
	testLabelHook = func() {
		if tested.Add(1) == 1 {
			cancel2()
		}
	}
	res2, err2 := FindNC(ctx2, g, query, opt)
	if !errors.Is(err2, context.Canceled) || errors.As(err2, &pe) {
		t.Fatalf("non-Partial err = %v, want bare context.Canceled", err2)
	}
	if len(res2.Characteristics) != 0 || len(res2.Context) != 0 {
		t.Fatal("non-Partial cancellation returned a result")
	}
}
