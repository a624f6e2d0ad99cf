package notable

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/ntriples"
)

// goldenTypePredicates are the type predicates every golden input loads
// under: the one the corpora use, none, and one that never occurs.
var goldenTypePredicates = []string{"type", "", "neverOccurs"}

// loadGraphGolden pins the SHA-256 of WriteSnapshot(LoadGraph(input, tp))
// for every golden input × type predicate. The digests fix node, label and
// type numbering as well as the CSR, so any change to how triples are
// interned, sorted, deduplicated or typed shows up here.
//
// The TSV and N-Triples dumps of one dataset carry the same statements,
// and "" and "neverOccurs" both load every predicate as an edge label, so
// those pairs share a digest.
var loadGraphGolden = map[string]string{
	"authors.nt/":              "ba447f93d4c0a3a115c5e8d8bb76dab7868085b3214495b86188f30b11060774",
	"authors.nt/neverOccurs":   "ba447f93d4c0a3a115c5e8d8bb76dab7868085b3214495b86188f30b11060774",
	"authors.nt/type":          "b2b8b475cf20602d2084b4097e469f00f756adeac1cf23918e9cf7e400712bb4",
	"authors.tsv/":             "ba447f93d4c0a3a115c5e8d8bb76dab7868085b3214495b86188f30b11060774",
	"authors.tsv/neverOccurs":  "ba447f93d4c0a3a115c5e8d8bb76dab7868085b3214495b86188f30b11060774",
	"authors.tsv/type":         "b2b8b475cf20602d2084b4097e469f00f756adeac1cf23918e9cf7e400712bb4",
	"empty/":                   "b7e549acaed1b30581eff13f56d40f37359baba6c4c780eeff4bdae6cd507687",
	"empty/neverOccurs":        "b7e549acaed1b30581eff13f56d40f37359baba6c4c780eeff4bdae6cd507687",
	"empty/type":               "b7e549acaed1b30581eff13f56d40f37359baba6c4c780eeff4bdae6cd507687",
	"figure1.nt/":              "1a9239ebcb502bf745febe568c6cf6a7e34357ca46522e42a5e35925b845d852",
	"figure1.nt/neverOccurs":   "1a9239ebcb502bf745febe568c6cf6a7e34357ca46522e42a5e35925b845d852",
	"figure1.nt/type":          "6d4e140a89ead23d80f426d23c636fc2f457600668be17427bdf4a901b828004",
	"figure1.tsv/":             "1a9239ebcb502bf745febe568c6cf6a7e34357ca46522e42a5e35925b845d852",
	"figure1.tsv/neverOccurs":  "1a9239ebcb502bf745febe568c6cf6a7e34357ca46522e42a5e35925b845d852",
	"figure1.tsv/type":         "6d4e140a89ead23d80f426d23c636fc2f457600668be17427bdf4a901b828004",
	"lmdb.nt/":                 "bc522b1e192e425c5e1d52408e781ad30bf926175be3e62ec5ffb343c0893750",
	"lmdb.nt/neverOccurs":      "bc522b1e192e425c5e1d52408e781ad30bf926175be3e62ec5ffb343c0893750",
	"lmdb.nt/type":             "9b59a2c41f5b3884f80f7ccdb1e771d1f509d940060745398fa370d41ce9df8e",
	"lmdb.tsv/":                "bc522b1e192e425c5e1d52408e781ad30bf926175be3e62ec5ffb343c0893750",
	"lmdb.tsv/neverOccurs":     "bc522b1e192e425c5e1d52408e781ad30bf926175be3e62ec5ffb343c0893750",
	"lmdb.tsv/type":            "9b59a2c41f5b3884f80f7ccdb1e771d1f509d940060745398fa370d41ce9df8e",
	"products.nt/":             "510834aad4dc798d93a1943c325f680f8a98988f3476b50de51282e27b2adf85",
	"products.nt/neverOccurs":  "510834aad4dc798d93a1943c325f680f8a98988f3476b50de51282e27b2adf85",
	"products.nt/type":         "afc55dd3aebb9ced411c0145b02eda2f03beb1318ae8a5a00458b3d436542268",
	"products.tsv/":            "510834aad4dc798d93a1943c325f680f8a98988f3476b50de51282e27b2adf85",
	"products.tsv/neverOccurs": "510834aad4dc798d93a1943c325f680f8a98988f3476b50de51282e27b2adf85",
	"products.tsv/type":        "afc55dd3aebb9ced411c0145b02eda2f03beb1318ae8a5a00458b3d436542268",
	"random1/":                 "6f8da3d5b2119cf6236a85d07aed98345d49200a700e5ef2ab29c766e4d7040f",
	"random1/neverOccurs":      "6f8da3d5b2119cf6236a85d07aed98345d49200a700e5ef2ab29c766e4d7040f",
	"random1/type":             "36b9aa20d1e4a2dcea4ba49537555f4df3ddb00c4af406c4af25a858be009e86",
	"random2/":                 "7e46ea4ef5669796057375763ad3e21d64c8bf49c30b1d2d58f153c47f1617fa",
	"random2/neverOccurs":      "7e46ea4ef5669796057375763ad3e21d64c8bf49c30b1d2d58f153c47f1617fa",
	"random2/type":             "4a3db8d9c75b692b39d01d02469c1617883bad43acafd1ae3145bad1f33dab6c",
	"random3/":                 "262ed55b40e6093936eef7a7e7cdfa3371010971d3e7fd5ae72b1b983135bc13",
	"random3/neverOccurs":      "262ed55b40e6093936eef7a7e7cdfa3371010971d3e7fd5ae72b1b983135bc13",
	"random3/type":             "2064a1fac6039c62f65d4a1ba8667f626b101969bffc0a800b5efc421dea012a",
	"random4/":                 "14111909acbe3176f93567c51dd2f9b01a16205954c9d0f98d3dcbca51b6bfec",
	"random4/neverOccurs":      "14111909acbe3176f93567c51dd2f9b01a16205954c9d0f98d3dcbca51b6bfec",
	"random4/type":             "0f48257ee4b1df98a88578c7397c9a9a3285cc1bd55aad476825c39640953202",
	"random5/":                 "e8d5e915babcbfc7d57f94503b6d27018527fa6ed5cae503f019013655db0e7f",
	"random5/neverOccurs":      "e8d5e915babcbfc7d57f94503b6d27018527fa6ed5cae503f019013655db0e7f",
	"random5/type":             "8f123d711f79cc1ff6c884f44b444d742f9b93b94a477427a5f7b1f616380947",
	"random6/":                 "7008be133d54539519a89933ee1ca29df634eab14c8099217abe35794a40415f",
	"random6/neverOccurs":      "7008be133d54539519a89933ee1ca29df634eab14c8099217abe35794a40415f",
	"random6/type":             "66ebadf87622f269ef8ad4005f8efce25de02447429bcfd1ee9a3d396970cf3e",
	"yago.nt/":                 "8005b794f78cf4f612ef34c67b34a4d3c398648421519e8d97ccdf8f17b63702",
	"yago.nt/neverOccurs":      "8005b794f78cf4f612ef34c67b34a4d3c398648421519e8d97ccdf8f17b63702",
	"yago.nt/type":             "6970e7d398721251825453b0eae68e0240bd694ae569415e61aef24cff39f658",
	"yago.tsv/":                "8005b794f78cf4f612ef34c67b34a4d3c398648421519e8d97ccdf8f17b63702",
	"yago.tsv/neverOccurs":     "8005b794f78cf4f612ef34c67b34a4d3c398648421519e8d97ccdf8f17b63702",
	"yago.tsv/type":            "6970e7d398721251825453b0eae68e0240bd694ae569415e61aef24cff39f658",
}

// snapshotGolden pins the SHA-256 of WriteSnapshot for two generated
// graphs built directly (no triple parsing): the Figure 1 toy graph and the
// benchmark's G_small.
var snapshotGolden = map[string]string{
	"G_small": "0c477b50aeff96bbb6350258731ee9d3b5c1e61b53340aae8d23bf543ed94828",
	"figure1": "29c5fe112d2f0da81b9923ba363f79fb514f2e23de851d80ef0b6f87491ccbfa",
}

type goldenInput struct {
	name string
	data []byte
}

// goldenInputs returns the LoadGraph corpora: TSV and N-Triples dumps of
// the generated datasets (the shape cmd/kggen writes) and seeded random
// corpora that stress interning order.
var goldenInputs = sync.OnceValue(func() []goldenInput {
	datasets := []struct {
		name string
		g    *kg.Graph
	}{
		{"figure1", gen.Figure1().Graph},
		{"authors", gen.Authors(42).Graph},
		{"products", gen.Products(42).Graph},
		{"lmdb", gen.LinkedMDBLike(gen.LMDBConfig{Seed: 42, Scale: 0.3}).Graph},
		{"yago", gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.3}).Graph},
	}
	var out []goldenInput
	for _, d := range datasets {
		out = append(out,
			goldenInput{d.name + ".tsv", dumpTriples(d.g, ntriples.FormatTSV)},
			goldenInput{d.name + ".nt", dumpTriples(d.g, ntriples.FormatNT)})
	}
	for seed := int64(1); seed <= 6; seed++ {
		out = append(out, goldenInput{fmt.Sprintf("random%d", seed), randomCorpus(seed)})
	}
	out = append(out, goldenInput{"empty", []byte("# nothing but a comment\n\n")})
	return out
})

// dumpTriples writes g the way cmd/kggen does: per node in ID order its
// type statement, then its forward (non-inverse) edges.
func dumpTriples(g *kg.Graph, format ntriples.Format) []byte {
	var buf bytes.Buffer
	w := ntriples.NewWriter(&buf, format)
	for n := 0; n < g.NumNodes(); n++ {
		id := kg.NodeID(n)
		if t := g.TypeOf(id); t != kg.NoType {
			w.Write(ntriples.Statement{S: g.NodeName(id), P: "type", O: g.TypeName(t)})
		}
		for _, e := range g.OutEdges(id) {
			if !g.IsInverse(e.Label) {
				w.Write(ntriples.Statement{S: g.NodeName(id), P: g.LabelName(e.Label), O: g.NodeName(e.To)})
			}
		}
	}
	w.Flush()
	return buf.Bytes()
}

// randomCorpus is a seeded triple file in mixed formats (TSV, N-Triples
// IRIs and literals, bare words) with comments and blank lines, duplicate
// statements, several type statements per node, type objects that are
// also subjects, a node named like the type predicate, an explicitly
// inverse-named predicate, and predicates first seen late in the file.
func randomCorpus(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 10 + rng.Intn(50)
	node := func() string {
		switch rng.Intn(20) {
		case 0:
			return "type"
		case 1:
			return fmt.Sprintf("T%d", rng.Intn(4)) // a type name used as a node
		}
		return fmt.Sprintf("n%d", rng.Intn(nNodes))
	}
	preds := []string{"p0", "p1", "q", "q" + kg.InverseSuffix, "p2", "p3", "late4", "late5"}
	var lines []string
	nLines := 50 + rng.Intn(250)
	for i := 0; i < nLines; i++ {
		if len(lines) > 0 && rng.Intn(8) == 0 {
			lines = append(lines, lines[rng.Intn(len(lines))]) // duplicate
			continue
		}
		s, p, o := node(), "type", ""
		if rng.Intn(3) == 0 {
			if rng.Intn(3) == 0 {
				o = node() // type object that is also a node elsewhere
			} else {
				o = fmt.Sprintf("T%d", rng.Intn(4))
			}
		} else {
			// Predicates unlock as the file goes on.
			p = preds[rng.Intn(1+i*len(preds)/nLines)]
			o = node()
		}
		var line string
		switch rng.Intn(4) {
		case 0:
			line = s + "\t" + p + "\t" + o
		case 1:
			line = "<" + s + "> <" + p + "> <" + o + "> ."
		case 2:
			line = "<" + s + "> <" + p + "> \"" + o + "\" ."
		default:
			line = s + " " + p + " " + o
		}
		lines = append(lines, line)
		switch rng.Intn(25) {
		case 0:
			lines = append(lines, "# comment "+s)
		case 1:
			lines = append(lines, "")
		}
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}

func snapshotDigest(t testing.TB, g *Graph) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes()
}

// checkGolden compares computed digests with want and reports every
// difference as a ready-to-paste table row.
func checkGolden(t *testing.T, want, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("digest mismatch: %q: %q,", k, got[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d golden digests, computed %d", len(want), len(got))
	}
}

func TestLoadGraphGolden(t *testing.T) {
	got := make(map[string]string)
	for _, in := range goldenInputs() {
		for _, tp := range goldenTypePredicates {
			g, err := LoadGraph(bytes.NewReader(in.data), tp)
			if err != nil {
				t.Fatalf("%s/%q: %v", in.name, tp, err)
			}
			got[in.name+"/"+tp], _ = snapshotDigest(t, g)
		}
	}
	checkGolden(t, loadGraphGolden, got)
}

func TestSnapshotGolden(t *testing.T) {
	graphs := map[string]*Graph{
		"figure1": gen.Figure1().Graph,
		"G_small": gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1}).Graph,
	}
	got := make(map[string]string)
	for name, g := range graphs {
		sum, data := snapshotDigest(t, g)
		got[name] = sum
		back, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, _ := snapshotDigest(t, back); again != sum {
			t.Errorf("%s: ReadSnapshot did not rebuild an equal graph", name)
		}
	}
	checkGolden(t, snapshotGolden, got)
}

// FuzzLoadGraph: arbitrary bytes load as a graph or fail with a typed
// parse error, never a panic, and a loaded graph survives its own
// snapshot byte for byte.
func FuzzLoadGraph(f *testing.F) {
	for _, in := range goldenInputs() {
		if len(in.data) < 4096 {
			f.Add(in.data)
		}
	}
	f.Add([]byte("a\tb\n"))
	f.Add([]byte("<a> <type> <a> .\n<a> <type> \"b\" .\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tp := range goldenTypePredicates {
			g, err := LoadGraph(bytes.NewReader(data), tp)
			if err != nil {
				var pe *ntriples.ParseError
				if !errors.As(err, &pe) && !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("untyped load failure %T: %v", err, err)
				}
				return
			}
			_, first := snapshotDigest(t, g)
			back, err := ReadSnapshot(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("reading back its own snapshot: %v", err)
			}
			if _, again := snapshotDigest(t, back); !bytes.Equal(first, again) {
				t.Fatal("snapshot round trip changed the bytes")
			}
		}
	})
}

// BenchmarkLoadGraph parses and builds a TSV dump of the benchmark's
// G_big (139 516 nodes, 637 008 edges with inverses).
func BenchmarkLoadGraph(b *testing.B) {
	data := dumpTriples(gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1, AmbientScale: 24}).Graph, ntriples.FormatTSV)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadGraph(bytes.NewReader(data), "type"); err != nil {
			b.Fatal(err)
		}
	}
}
