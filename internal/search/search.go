// Package search resolves free-text entity mentions to graph nodes.
//
// The paper assumes query nodes are given, noting that "there exists a
// number of techniques that correctly map keywords to nodes in any
// knowledge graph" [12, 24]. This package is that substrate: a token-level
// inverted index over node names with TF-style scoring, exact and
// case-insensitive matching, and deterministic ranking. It sits in front
// of every served request, so resolving an exact name is one map lookup.
//
// # Concurrency
//
// Node names are immutable and node IDs append-only across the epochs of
// a live graph, so an index never needs rebuilding for a graph its own
// graph prefixes: Extend indexes the new IDs in place. Any number of
// Lookup/Resolve readers and any number of Extend callers may run
// concurrently; a reader sees the index either before or after an Extend,
// never in between.
package search

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"

	"repro/internal/kg"
)

// Index is an inverted index over node names, append-only in place (see
// Extend) and safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	// g names the indexed nodes: the graph of the latest Extend that added
	// any.
	g       *kg.Graph
	byToken map[string][]kg.NodeID
	exact   map[string]kg.NodeID
	// tokenCount[n] = len(Tokenize(NodeName(n))), precomputed so Lookup's
	// brevity discount does not re-tokenize every candidate on every query.
	tokenCount []int
}

// Hit is a scored match.
type Hit struct {
	Node  kg.NodeID
	Name  string
	Score float64
}

// Tokenize lowercases and splits a name into alphanumeric tokens.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r)
	})
}

// NewIndex indexes every node name of g.
func NewIndex(g *kg.Graph) *Index {
	idx := &Index{
		byToken: make(map[string][]kg.NodeID),
		exact:   make(map[string]kg.NodeID, g.NumNodes()),
	}
	idx.Extend(g)
	return idx
}

// Extend indexes the nodes of g the index does not cover yet — IDs
// [NumNodes(), g.NumNodes()), in ID order — leaving exactly the index
// NewIndex(g) would build. g must extend the indexed graph: same names
// for the IDs already covered, which every later epoch of one live graph
// guarantees. A g with no new nodes is a no-op, so callers racing each
// other with different epochs converge on the longest.
func (idx *Index) Extend(g *kg.Graph) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	n := g.NumNodes()
	if n <= len(idx.tokenCount) {
		return
	}
	idx.g = g
	for id := kg.NodeID(len(idx.tokenCount)); int(id) < n; id++ {
		name := g.NodeName(id)
		idx.exact[strings.ToLower(name)] = id
		toks := Tokenize(name)
		idx.tokenCount = append(idx.tokenCount, len(toks))
		for _, tok := range toks {
			// Postings grow in ID order, so a token this name already
			// contributed is the list's last entry.
			post := idx.byToken[tok]
			if len(post) > 0 && post[len(post)-1] == id {
				continue
			}
			idx.byToken[tok] = append(post, id)
		}
	}
}

// NumNodes reports how many nodes the index covers — callers serving a
// live-mutable graph compare it with the current graph's node count to
// decide whether the index needs an Extend.
func (idx *Index) NumNodes() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return len(idx.tokenCount)
}

// Lookup finds the best matches for a free-text mention. An exact
// (case-insensitive) name match always ranks first with score 1; otherwise
// candidates are scored by the fraction of the mention's distinct tokens
// they contain, discounted by how many extra tokens the candidate name
// has, so no fuzzy score exceeds 0.9. Ties break by name for determinism.
// Returns up to limit hits.
func (idx *Index) Lookup(mention string, limit int) []Hit {
	if limit <= 0 {
		return nil
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	var hits []Hit
	lower := strings.ToLower(strings.TrimSpace(mention))
	if id, ok := idx.exact[lower]; ok {
		hits = append(hits, Hit{Node: id, Name: idx.g.NodeName(id), Score: 1})
		if limit == 1 {
			// Every other candidate scores at most 0.9: the ranking below
			// would put this hit first and cut the rest.
			return hits
		}
	}
	// A repeated mention token counts once: counted again, it would lift a
	// fuzzy score past 0.9 and above the exact hit.
	tokens := Tokenize(mention)
	slices.Sort(tokens)
	tokens = slices.Compact(tokens)
	if len(tokens) > 0 {
		matched := make(map[kg.NodeID]int)
		for _, tok := range tokens {
			for _, id := range idx.byToken[tok] {
				matched[id]++
			}
		}
		for id, n := range matched {
			if len(hits) > 0 && hits[0].Node == id {
				continue // already present as the exact match
			}
			nameTokens := idx.tokenCount[id]
			coverage := float64(n) / float64(len(tokens))
			brevity := float64(n) / float64(nameTokens)
			hits = append(hits, Hit{
				Node:  id,
				Name:  idx.g.NodeName(id),
				Score: 0.9 * coverage * (0.5 + 0.5*brevity),
			})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Name < hits[j].Name
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// Resolve maps a list of mentions to node IDs, taking the top hit of each.
// Unresolvable mentions are reported in missing.
func (idx *Index) Resolve(mentions []string) (ids []kg.NodeID, missing []string) {
	for _, m := range mentions {
		hits := idx.Lookup(m, 1)
		if len(hits) == 0 {
			missing = append(missing, m)
			continue
		}
		ids = append(ids, hits[0].Node)
	}
	return ids, missing
}
