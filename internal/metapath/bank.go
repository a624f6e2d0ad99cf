package metapath

import (
	"context"
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/offheap"
)

// A walk bank holds one graph's mining walks for every query at once. A
// walk depends on the query only through two rules — it may not start in
// Q, and it stops at its first Q node — so walks drawn without Q and cut
// per query follow the same law as walks drawn per query.
//
// Walk id i is the (i/4)-th walk of stream i mod 4, the stream seeded
// Seed + w·0x9e3779b9 that mining has always drawn. Because ids interleave
// the streams, the first w walks of a bank are exactly the walks a budget
// of w draws, and a bank of W walks answers every budget w ≤ W.
//
// The bank stores, per node, the positions at which walks stand on it,
// each as the code walk·(MaxLength+1)+step (step 0 is the start), in
// ascending order as uvarint deltas; and one label per step, walk-major at
// a fixed stride of MaxLength. A query reads only its own nodes' lists.
type bank struct {
	key   bankKey
	walks int // walk ids 0..walks-1

	// mem is the whole arena — offsets, lists, labels — mapped off the Go
	// heap where the platform allows (offheap.Map), so that it does not count
	// twice through GC pacing. release unmaps it; every reader must end
	// with runtime.KeepAlive on the bank.
	mem    []byte
	offs   []byte // n+1 little-endian uint64s: node v's list is lists[off(v):off(v+1)]
	lists  []byte
	labels []byte // walks·maxLength·labW
	labW   int    // bytes per label: 1, 2 or 4
}

// bankKey is what fixes a bank's walks, the budget aside.
type bankKey struct {
	seed      int64
	maxLength int
	uniform   bool
}

// bankSlot is what a graph's kg.Graph.WalkBankSlot holds: the one
// retained bank and the lock of the build in flight.
type bankSlot struct {
	cur  atomic.Pointer[bank]
	lock chan struct{} // capacity 1; held by the one build in flight
}

// mappedBytes is the bytes of every bank arena not yet released,
// process-wide: published banks plus replaced or dropped ones whose
// finalizer has not run.
var mappedBytes atomic.Int64

// BankBytes reports the arena bytes of the walk bank g retains, 0 if it
// has none yet.
func BankBytes(g *kg.Graph) int64 {
	s, ok := g.WalkBankSlot().Load().(*bankSlot)
	if !ok {
		return 0
	}
	b := s.cur.Load()
	if b == nil {
		return 0
	}
	return int64(len(b.mem))
}

// bankBuildHook, when set by a test, runs at the start of every build.
var bankBuildHook func()

// slotOf returns g's bank slot, installing an empty one on first use.
func slotOf(g *kg.Graph) *bankSlot {
	v := g.WalkBankSlot()
	if s, ok := v.Load().(*bankSlot); ok {
		return s
	}
	v.CompareAndSwap(nil, &bankSlot{lock: make(chan struct{}, 1)})
	return v.Load().(*bankSlot)
}

// bankFor returns a bank of g for key holding at least walks walks,
// building one of build walks (build ≥ walks) if the slot holds none,
// another key's, or a smaller one; a new bank replaces the slot's.
// Concurrent callers wait for one build. It returns nil once ctx is done,
// and a cancelled build publishes nothing.
// buildObs, when non-nil, receives the wall time of a build this call ran.
func bankFor(ctx context.Context, g *kg.Graph, key bankKey, walks, build int, buildObs *obs.Histogram) *bank {
	s := slotOf(g)
	if b := s.cur.Load(); b.covers(key, walks) {
		return b
	}
	select {
	case s.lock <- struct{}{}:
	case <-ctx.Done():
		return nil
	}
	defer func() { <-s.lock }()
	if b := s.cur.Load(); b.covers(key, walks) {
		return b
	}
	start := time.Now()
	b := buildBank(ctx, g, key, build)
	if b == nil {
		return nil
	}
	if buildObs != nil {
		buildObs.Observe(time.Since(start))
	}
	s.cur.Store(b)
	return b
}

func (b *bank) covers(key bankKey, walks int) bool {
	return b != nil && b.key == key && b.walks >= walks
}

// buildBank draws walks walks in two replay passes — one sizing every
// node's list, one filling it — so no walk is ever held beyond its own
// steps. It checks ctx every mineCheckInterval walks and returns nil,
// with its arena released, once ctx is done.
func buildBank(ctx context.Context, g *kg.Graph, key bankKey, walks int) *bank {
	if bankBuildHook != nil {
		bankBuildHook()
	}
	n, L := g.NumNodes(), key.maxLength
	wk := newWalker(g, key)
	stride := uint64(L + 1)

	// Pass 1: size[v] is node v's list bytes, last[v] its previous code.
	size, last := make([]uint64, n), make([]uint64, n)
	if !wk.replay(ctx, key.seed, walks, func(i int, nodes []kg.NodeID, _ []kg.LabelID) {
		base := uint64(i) * stride
		for s, v := range nodes {
			c := base + uint64(s)
			size[v] += uint64(uvarintLen(c - last[v]))
			last[v] = c
		}
	}) {
		return nil
	}
	var listBytes uint64
	for _, s := range size {
		listBytes += s
	}
	b := &bank{key: key, walks: walks, labW: 1}
	switch nl := g.NumLabels(); {
	case nl > 1<<16:
		b.labW = 4
	case nl > 1<<8:
		b.labW = 2
	}
	offBytes := uint64(n+1) * 8
	labBytes := uint64(walks) * uint64(L) * uint64(b.labW)
	b.mem = offheap.Map(int(offBytes + listBytes + labBytes))
	mappedBytes.Add(int64(len(b.mem)))
	runtime.SetFinalizer(b, (*bank).release)
	b.offs, b.lists, b.labels = b.mem[:offBytes], b.mem[offBytes:offBytes+listBytes], b.mem[offBytes+listBytes:]

	// Offsets; size becomes each node's write cursor.
	var at uint64
	for v := 0; v <= n; v++ {
		binary.LittleEndian.PutUint64(b.offs[8*v:], at)
		if v < n {
			at, size[v] = at+size[v], at
		}
	}
	clear(last)

	// Pass 2: fill the lists and the labels.
	if !wk.replay(ctx, key.seed, walks, func(i int, nodes []kg.NodeID, labels []kg.LabelID) {
		base := uint64(i) * stride
		for s, v := range nodes {
			c := base + uint64(s)
			size[v] += uint64(binary.PutUvarint(b.lists[size[v]:], c-last[v]))
			last[v] = c
		}
		for s, l := range labels {
			b.putLabel(i*L+s, l)
		}
	}) {
		runtime.SetFinalizer(b, nil)
		b.release()
		return nil
	}
	return b
}

// release unmaps the arena. It runs as the bank's finalizer, or at once
// for a cancelled build, which was never published.
func (b *bank) release() {
	mappedBytes.Add(-int64(len(b.mem)))
	offheap.Unmap(b.mem)
	b.mem, b.offs, b.lists, b.labels = nil, nil, nil, nil
}

func (b *bank) off(v int) uint64 { return binary.LittleEndian.Uint64(b.offs[8*v:]) }

func (b *bank) putLabel(i int, l kg.LabelID) {
	switch b.labW {
	case 1:
		b.labels[i] = byte(l)
	case 2:
		binary.LittleEndian.PutUint16(b.labels[2*i:], uint16(l))
	default:
		binary.LittleEndian.PutUint32(b.labels[4*i:], uint32(l))
	}
}

func (b *bank) label(i int) kg.LabelID {
	switch b.labW {
	case 1:
		return kg.LabelID(b.labels[i])
	case 2:
		return kg.LabelID(binary.LittleEndian.Uint16(b.labels[2*i:]))
	default:
		return kg.LabelID(binary.LittleEndian.Uint32(b.labels[4*i:]))
	}
}

// mine answers one query from the bank's first walks walks: for each walk
// that reaches a node of query, the label sequence up to its first such
// node — unless that is its start. query holds distinct in-range nodes.
func (b *bank) mine(query []kg.NodeID, walks int) []Mined {
	L := b.key.maxLength
	stride := uint64(L + 1)
	limit := uint64(walks) * stride
	var codes []uint64
	for _, q := range query {
		list := b.lists[b.off(int(q)):b.off(int(q)+1)]
		var c uint64
		for len(list) > 0 {
			d, k := binary.Uvarint(list)
			list = list[k:]
			if c += d; c >= limit {
				break
			}
			codes = append(codes, c)
		}
	}
	slices.Sort(codes)

	// Keyed by the raw label bytes, which are fixed-width.
	found := make(map[string]*Mined)
	prev := ^uint64(0)
	for _, c := range codes {
		walk, step := c/stride, int(c%stride)
		if walk == prev {
			continue // a later Q hit of a walk already counted or dropped
		}
		prev = walk
		if step == 0 {
			continue // the walk starts in Q
		}
		first := int(walk) * L
		raw := b.labels[first*b.labW : (first+step)*b.labW]
		m := found[string(raw)]
		if m == nil {
			p := make(Path, step)
			for s := range p {
				p[s] = b.label(first + s)
			}
			m = &Mined{Path: p}
			found[string(raw)] = m
		}
		m.Count++
	}
	return sortMined(found)
}

// replay draws walks walks in id order, handing each to each as its nodes
// (start first) and the labels between them; the slices are reused. It
// reports false, having stopped, once ctx is done.
func (wk *walker) replay(ctx context.Context, seed int64, walks int, each func(i int, nodes []kg.NodeID, labels []kg.LabelID)) bool {
	var streams [mineStreams]draws
	for w := range streams {
		streams[w] = newDraws(seed + int64(w)*0x9e3779b9)
	}
	nodes := make([]kg.NodeID, wk.maxLength+1)
	labels := make([]kg.LabelID, wk.maxLength)
	for i := 0; i < walks; i++ {
		if i%mineCheckInterval == 0 && ctx.Err() != nil {
			return false
		}
		s := wk.walk(streams[i%mineStreams], nodes, labels)
		each(i, nodes[:s+1], labels[:s])
	}
	return true
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
