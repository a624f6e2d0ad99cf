package kg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestSnapshotRoundTripFigure1(t *testing.T) {
	g := figure1()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

func TestSnapshotRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(0)
	labels := []string{"actedIn", "hasChild", "livesIn", "spouse"}
	b.Symmetric("spouse")
	for i := 0; i < 2000; i++ {
		from := nodeName(rng.Intn(26)) + nodeName(rng.Intn(26))
		to := nodeName(rng.Intn(26)) + nodeName(rng.Intn(26))
		b.AddEdge(from, labels[rng.Intn(len(labels))], to)
	}
	b.SetType("aa", "person")
	b.SetType("bb", "movie")
	g := b.Build()

	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty round trip: %s", got.Stats())
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	g := figure1()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle of the payload.
	data[len(data)/2] ^= 0x55
	_, err := ReadSnapshot(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted snapshot read succeeded")
	}
}

// TestSnapshotDetectsTruncation cuts the snapshot at every length, inside
// the header, the payload and the trailer alike.
func TestSnapshotDetectsTruncation(t *testing.T) {
	g := figure1()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < buf.Len(); n++ {
		_, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:n]))
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v, want errCorrupt", n, buf.Len(), err)
		}
	}
}

// TestSnapshotDetectsEveryFlippedByte flips each byte of a snapshot in
// turn; header checks, range checks or the CRC must reject every one.
func TestSnapshotDetectsEveryFlippedByte(t *testing.T) {
	var buf bytes.Buffer
	if err := figure1().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < buf.Len(); i++ {
		data := bytes.Clone(buf.Bytes())
		data[i] ^= 0xff
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, errCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want errCorrupt", i, err)
		}
	}
}

func TestSnapshotRejectsWrongMagic(t *testing.T) {
	_, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot at all")))
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
}

func TestSnapshotRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := figure1().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[len(snapMagic):], snapVersion+1)
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
}

// TestSnapshotReadError: a failing reader is reported as corruption, as a
// short read would be.
func TestSnapshotReadError(t *testing.T) {
	r := io.MultiReader(bytes.NewReader([]byte(snapMagic)), iotest.ErrReader(errors.New("link down")))
	if _, err := ReadSnapshot(r); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
}

// snapshotBytes frames payload with the header and a correct trailer, so
// only the payload's structure is under test.
func snapshotBytes(payload []byte) []byte {
	out := append([]byte(snapMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[len(snapMagic):], snapVersion)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestSnapshotRejectsHugeCounts: a CRC-valid payload whose node count
// exceeds the bytes left is refused before anything is sized by it.
func TestSnapshotRejectsHugeCounts(t *testing.T) {
	data := snapshotBytes(binary.AppendUvarint(nil, 1<<40))
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
}

func TestSnapshotIgnoresTrailingBytes(t *testing.T) {
	g := figure1()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailing")
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)
}

// chunkWriter records the largest single Write and fails every Write
// after the first failAfter.
type chunkWriter struct {
	bytes.Buffer
	writes, failAfter, largest int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.writes++; w.failAfter > 0 && w.writes > w.failAfter {
		return 0, errors.New("disk full")
	}
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

// TestSnapshotWritesInChunks: a snapshot several chunks long reaches the
// writer in bounded pieces, reads back to the same graph, and a write
// failure part-way is reported.
func TestSnapshotWritesInChunks(t *testing.T) {
	g := benchGraph()
	var w chunkWriter
	if err := g.WriteSnapshot(&w); err != nil {
		t.Fatal(err)
	}
	if w.Len() < 2*snapChunk || w.largest > snapChunk+64 {
		t.Fatalf("%d bytes in %d writes, largest %d; want several chunks of at most %d", w.Len(), w.writes, w.largest, snapChunk+64)
	}
	got, err := ReadSnapshot(&w)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, got)

	if err := g.WriteSnapshot(&chunkWriter{failAfter: 2}); err == nil {
		t.Fatal("WriteSnapshot returned nil after a failed write")
	}
}

func mustDecoder(t *testing.T, payload []byte) *decoder {
	t.Helper()
	d, err := newDecoder(snapshotBytes(payload))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDecoderPrimitives(t *testing.T) {
	var p []byte
	p = binary.AppendUvarint(p, 0)
	p = binary.AppendUvarint(p, 1<<40)
	p = binary.AppendVarint(p, -12345)
	p = binary.AppendUvarint(p, uint64(len("hello, 世界")))
	p = append(p, "hello, 世界"...)
	d := mustDecoder(t, p)
	if got := d.uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.uvarint(); got != 1<<40 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.varint(); got != -12345 {
		t.Fatalf("varint = %d", got)
	}
	if got := d.str(); got != "hello, 世界" {
		t.Fatalf("str = %q", got)
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderVarintProperty(t *testing.T) {
	f := func(us []uint64, is []int64) bool {
		var p []byte
		for _, u := range us {
			p = binary.AppendUvarint(p, u)
		}
		for _, i := range is {
			p = binary.AppendVarint(p, i)
		}
		d, err := newDecoder(snapshotBytes(p))
		if err != nil {
			return false
		}
		for _, u := range us {
			if d.uvarint() != u {
				return false
			}
		}
		for _, i := range is {
			if d.varint() != i {
				return false
			}
		}
		return d.close() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderRejectsOversizedString(t *testing.T) {
	d := mustDecoder(t, binary.AppendUvarint(nil, 1<<40)) // absurd length prefix
	if d.str(); !errors.Is(d.err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", d.err)
	}
}

func TestDecoderRejectsWrongMagic(t *testing.T) {
	data := snapshotBytes(binary.AppendUvarint(nil, 7))
	copy(data, "WRONGMAG")
	if _, err := newDecoder(data); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
}

// TestDecoderDetectsTruncatedFile drops part of a string and the trailer:
// the string read or the checksum check must fail.
func TestDecoderDetectsTruncatedFile(t *testing.T) {
	s := "truncate me please, a reasonably long payload"
	data := snapshotBytes(append(binary.AppendUvarint(nil, uint64(len(s))), s...))
	d, err := newDecoder(data[:len(data)-6])
	if err != nil {
		t.Fatal(err)
	}
	d.str()
	if err := d.close(); !errors.Is(err, errCorrupt) {
		t.Fatalf("close err = %v, want errCorrupt", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := mustDecoder(t, nil)
	d.data = d.data[:d.off] // drop the trailer too: nothing left to read
	d.uvarint()
	first := d.err
	if !errors.Is(first, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt on an empty payload", first)
	}
	if d.varint() != 0 || d.str() != "" || d.err != first || d.close() != first {
		t.Fatal("error not sticky")
	}
}

func TestDecoderChecksumMismatch(t *testing.T) {
	data := snapshotBytes(binary.AppendUvarint(nil, 7))
	data[len(data)-1] ^= 1
	d, err := newDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	d.uvarint()
	if err := d.close(); !errors.Is(err, errCorrupt) {
		t.Fatalf("close err = %v, want errCorrupt", err)
	}
}

func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("NumNodes: %d vs %d", got.NumNodes(), want.NumNodes())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("NumEdges: %d vs %d", got.NumEdges(), want.NumEdges())
	}
	if want.NumLabels() != got.NumLabels() {
		t.Fatalf("NumLabels: %d vs %d", got.NumLabels(), want.NumLabels())
	}
	if want.NumTypes() != got.NumTypes() {
		t.Fatalf("NumTypes: %d vs %d", got.NumTypes(), want.NumTypes())
	}
	for n := 0; n < want.NumNodes(); n++ {
		id := NodeID(n)
		if want.NodeName(id) != got.NodeName(id) {
			t.Fatalf("node %d name: %q vs %q", n, got.NodeName(id), want.NodeName(id))
		}
		if want.TypeOf(id) != got.TypeOf(id) {
			t.Fatalf("node %d type differs", n)
		}
		a, b := want.OutEdges(id), got.OutEdges(id)
		if len(a) != len(b) {
			t.Fatalf("node %d degree: %d vs %d", n, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d edge %d: %v vs %v", n, i, b[i], a[i])
			}
		}
		if want.WeightedOutDegree(id) != got.WeightedOutDegree(id) {
			t.Fatalf("node %d weighted degree differs", n)
		}
	}
	for l := 0; l < want.NumLabels(); l++ {
		id := LabelID(l)
		if want.LabelName(id) != got.LabelName(id) {
			t.Fatalf("label %d name differs", l)
		}
		if want.InverseLabel(id) != got.InverseLabel(id) {
			t.Fatalf("label %d inverse differs", l)
		}
		if want.LabelCount(id) != got.LabelCount(id) {
			t.Fatalf("label %d count differs", l)
		}
		if want.LabelWeight(id) != got.LabelWeight(id) {
			t.Fatalf("label %d weight differs", l)
		}
	}
}

func BenchmarkSnapshotWrite(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkSnapshotRead(b *testing.B) {
	g := benchGraph()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGraph() *Graph {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder(1 << 14)
	labels := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	for i := 0; i < 1<<14; i++ {
		from := nodeName(rng.Intn(26)) + nodeName(rng.Intn(26)) + nodeName(rng.Intn(26))
		to := nodeName(rng.Intn(26)) + nodeName(rng.Intn(26)) + nodeName(rng.Intn(26))
		b.AddEdge(from, labels[rng.Intn(len(labels))], to)
	}
	return b.Build()
}
