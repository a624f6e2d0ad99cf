package kg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot format identity. Bump the version when the payload layout
// changes; readers reject mismatched versions outright.
//
// A snapshot is
//
//	[magic][uint32 LE version] [payload ...] [uint32 LE CRC32(payload)]
//
// where the payload is built from unsigned varints, signed (zig-zag)
// varints and uvarint-length-prefixed strings, and the IEEE CRC covers the
// payload only. WAL checkpoints, the replication bootstrap and snapshot
// files all carry this one format.
const (
	snapMagic   = "KGSNAP\x00\x01"
	snapVersion = 1
	// maxSnapString bounds one length-prefixed string (1 GiB).
	maxSnapString = 1 << 30
	// snapChunk is how many encoded bytes WriteSnapshot gathers before
	// each write to its destination.
	snapChunk = 64 << 10
)

// SnapshotMagic is the byte string every graph snapshot stream starts
// with — exposed so loaders can sniff a renamed snapshot file instead of
// trusting its extension. Readers still validate the full header (magic,
// version, trailer CRC) themselves.
const SnapshotMagic = snapMagic

// errCorrupt is wrapped by every error ReadSnapshot reports for bytes that
// are not a well-formed snapshot.
var errCorrupt = errors.New("kg: corrupt snapshot")

// WriteSnapshot serializes the graph to w in the binary snapshot format:
// dictionaries, per-node types, and the CSR adjacency, varint-encoded and
// protected by a CRC32 trailer. Derived data (label counts, weights) is
// recomputed on load rather than stored. Overlay graphs serialize their
// effective (patched) state, so reading the snapshot back yields a flat
// graph identical to Materialize's result.
//
// The encoding is handed to w in chunks of about snapChunk bytes, so a
// checkpoint taken beside live traffic holds one fixed-size buffer rather
// than a copy of the whole graph.
func (g *Graph) WriteSnapshot(w io.Writer) error {
	buf := make([]byte, 0, snapChunk+64)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	payload := len(buf) // the header is outside the CRC
	var crc uint32
	var err error
	flush := func() {
		crc = crc32.Update(crc, crc32.IEEETable, buf[payload:])
		if err == nil {
			_, err = w.Write(buf)
		}
		buf, payload = buf[:0], 0
	}
	spill := func() {
		if len(buf) >= snapChunk {
			flush()
		}
	}

	writeNames := func(n int, name func(uint32) string) {
		buf = binary.AppendUvarint(buf, uint64(n))
		for i := 0; i < n; i++ {
			s := name(uint32(i))
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
			spill()
		}
	}
	writeNames(g.NumNodes(), g.NodeName)
	writeNames(g.NumLabels(), g.LabelName)
	writeNames(g.NumTypes(), g.TypeName)

	for _, inv := range g.inverse {
		buf = binary.AppendUvarint(buf, uint64(inv))
		spill()
	}
	for n := 0; n < g.NumNodes(); n++ {
		if t := g.TypeOf(NodeID(n)); t == NoType {
			buf = binary.AppendUvarint(buf, 0)
		} else {
			buf = binary.AppendUvarint(buf, uint64(t)+1)
		}
		spill()
	}
	// Adjacency: degree then (label, delta-encoded target) per edge. Edges
	// within a node are sorted by (label, to), so targets within one label
	// run are non-decreasing and delta-encode well.
	for n := 0; n < g.NumNodes(); n++ {
		adj := g.OutEdges(NodeID(n))
		buf = binary.AppendUvarint(buf, uint64(len(adj)))
		prevLabel := LabelID(0)
		prevTo := NodeID(0)
		for _, e := range adj {
			buf = binary.AppendUvarint(buf, uint64(e.Label))
			if e.Label != prevLabel {
				prevTo = 0
			}
			buf = binary.AppendVarint(buf, int64(e.To)-int64(prevTo))
			prevLabel, prevTo = e.Label, e.To
			spill()
		}
	}
	flush()
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(buf, crc))
	}
	if err != nil {
		return fmt.Errorf("kg: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot deserializes a graph previously written by WriteSnapshot.
// It reads r to EOF; bytes after the snapshot's trailer are ignored.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	d, err := newDecoder(data)
	if err != nil {
		return nil, err
	}

	readDict := func() *dict {
		n := d.count()
		names := newDict(n)
		for i := 0; i < n; i++ {
			names.put(d.str())
		}
		return names
	}
	nodes := readDict()
	labels := readDict()
	types := readDict()
	if d.err != nil {
		return nil, d.err
	}

	nLabels := labels.len()
	inverse := make([]LabelID, nLabels)
	for i := range inverse {
		v := d.uvarint()
		if v >= uint64(nLabels) && d.err == nil {
			return nil, fmt.Errorf("%w: inverse label %d out of range", errCorrupt, v)
		}
		inverse[i] = LabelID(v)
	}
	nNodes := nodes.len()
	nodeType := make([]TypeID, nNodes)
	for i := range nodeType {
		v := d.uvarint()
		if v == 0 {
			nodeType[i] = NoType
			continue
		}
		if v-1 >= uint64(types.len()) && d.err == nil {
			return nil, fmt.Errorf("%w: node type %d out of range", errCorrupt, v-1)
		}
		nodeType[i] = TypeID(v - 1)
	}
	if d.err != nil {
		return nil, d.err
	}

	g := &Graph{
		nodes:      nodes,
		labels:     labels,
		types:      types,
		offsets:    make([]int64, nNodes+1),
		nodeType:   nodeType,
		inverse:    inverse,
		labelCount: make([]int64, nLabels),
	}
	for n := 0; n < nNodes; n++ {
		deg := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		g.offsets[n+1] = g.offsets[n] + int64(deg)
		prevLabel := LabelID(0)
		prevTo := NodeID(0)
		for i := uint64(0); i < deg; i++ {
			lab := d.uvarint()
			if lab >= uint64(nLabels) && d.err == nil {
				return nil, fmt.Errorf("%w: edge label %d out of range", errCorrupt, lab)
			}
			l := LabelID(lab)
			if l != prevLabel {
				prevTo = 0
			}
			to := int64(prevTo) + d.varint()
			if (to < 0 || to >= int64(nNodes)) && d.err == nil {
				return nil, fmt.Errorf("%w: edge target %d out of range", errCorrupt, to)
			}
			if d.err != nil {
				return nil, d.err
			}
			g.edges = append(g.edges, Edge{Label: l, To: NodeID(to)})
			g.labelCount[l]++
			prevLabel, prevTo = l, NodeID(to)
		}
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	g.deriveWeights()
	return g, nil
}

// decoder parses a snapshot held in memory. Errors are sticky: after the
// first failure every read returns a zero value and err keeps the cause.
type decoder struct {
	data    []byte
	payload int // offset of the first payload byte
	off     int
	err     error
}

// newDecoder validates the header (magic and version) and positions the
// decoder at the payload.
func newDecoder(data []byte) (*decoder, error) {
	hdr := len(snapMagic) + 4
	if len(data) < hdr {
		return nil, fmt.Errorf("%w: %d-byte header, want %d", errCorrupt, len(data), hdr)
	}
	if got := string(data[:len(snapMagic)]); got != snapMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", errCorrupt, got, snapMagic)
	}
	if v := binary.LittleEndian.Uint32(data[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", errCorrupt, v, snapVersion)
	}
	return &decoder{data: data, payload: hdr, off: hdr}, nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errCorrupt}, args...)...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads an element count. Every element takes at least one byte, so
// a count larger than what is left is corruption, caught before anything
// is sized by it.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.data)-d.off) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.data)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxSnapString {
		d.fail("string length %d too large", n)
		return ""
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("string of %d bytes runs past the end", n)
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// close reads the CRC trailer that follows the payload and verifies it.
func (d *decoder) close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.data)-d.off < 4 {
		return fmt.Errorf("%w: missing checksum trailer", errCorrupt)
	}
	got := binary.LittleEndian.Uint32(d.data[d.off:])
	if want := crc32.ChecksumIEEE(d.data[d.payload:d.off]); got != want {
		return fmt.Errorf("%w: checksum mismatch: file %08x, computed %08x", errCorrupt, got, want)
	}
	return nil
}
