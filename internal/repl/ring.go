// Package repl is the replication layer over the serving stack: the
// follower that rebuilds a primary's engine from its WAL stream
// (follower.go), and the failure-aware router that fronts a replica
// fleet (router.go). The wire contract is internal/server's
// /v1/repl/* endpoints; the correctness contract is the PR 7/8
// invariant chain — deterministic ApplyTriples replay over durable,
// epoch-contiguous records — which makes every replica's answer at
// epoch N bitwise-identical to the primary's at epoch N.
package repl

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// DefaultVirtualNodes is the ring's per-backend virtual-node count: 64
// keeps assignment imbalance within a few percent for small fleets
// while an add/remove still moves only ~1/N of the key space.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over backend names. Routing a query
// key through the ring gives every replica a stable slice of the query
// space — per-replica selector/seed caches stay hot — and the walk
// order past the owner is the deterministic fallback sequence retries
// and hedges use. Immutable once built; rebuild on membership change.
type Ring struct {
	points   []ringPoint
	backends []string
}

type ringPoint struct {
	hash    uint64
	backend int
}

// NewRing builds a ring over backends with vnodes virtual nodes each
// (0 selects DefaultVirtualNodes). Backend order does not matter; the
// hash space does.
func NewRing(backends []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{backends: append([]string(nil), backends...)}
	r.points = make([]ringPoint, 0, len(backends)*vnodes)
	for bi, name := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(name + "#" + strconv.Itoa(v)),
				backend: bi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on backend index so equal hashes (vanishingly rare)
		// still order deterministically.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Backends returns the member names (constructor order).
func (r *Ring) Backends() []string { return append([]string(nil), r.backends...) }

// Order returns every distinct backend in ring-walk order from key's
// position: the owner first, then the fallback slots a retry or hedge
// walks. Deterministic for a given (ring, key).
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.backends))
	seen := make([]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

// hash64 is FNV-1a over s with a splitmix64-style finalizer. Raw
// FNV-1a barely diffuses the last bytes into the high bits, so
// near-identical strings ("key-1", "key-2", vnode labels) cluster in
// narrow arcs of the ring; the finalizer's avalanche spreads them
// across the full 64-bit space. Dependency-free and deterministic —
// adversarial keys can only hurt their own cache affinity.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CanonicalKey renders a query's routing key: the parts of a request
// that determine which cache entries serve it — entities and nodes
// (sorted: the route only picks a replica, so order-insensitive even
// though the engine's selector keys keep the list order), the selector,
// and the override knobs that fork selector cache entries. Two requests
// for the same logical query land on the same replica however the
// client ordered its entities.
func CanonicalKey(entities []string, nodes []uint32, selector string, contextSize, walks int, damping float64) string {
	es := append([]string(nil), entities...)
	sort.Strings(es)
	ns := append([]uint32(nil), nodes...)
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var b strings.Builder
	b.WriteString("e:")
	for i, e := range es {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteString("|n:")
	for i, n := range ns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(n), 10))
	}
	b.WriteString("|s:")
	b.WriteString(selector)
	b.WriteString("|k:")
	b.WriteString(strconv.Itoa(contextSize))
	b.WriteString("|w:")
	b.WriteString(strconv.Itoa(walks))
	b.WriteString("|d:")
	b.WriteString(strconv.FormatFloat(damping, 'g', -1, 64))
	return b.String()
}
