package wal

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

// frames renders records for epochs [from, to] as a wire byte stream.
func frames(from, to uint64) []byte {
	var b []byte
	for e := from; e <= to; e++ {
		b = AppendRecord(b, testRecord(e))
	}
	return b
}

// readAllFrames drains a FrameReader, failing the test on anything but
// a clean EOF.
func readAllFrames(t *testing.T, fr *FrameReader) []Record {
	t.Helper()
	var recs []Record
	for {
		rec, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return recs
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		recs = append(recs, rec)
	}
}

// TestFrameReaderRoundTrip: a stream of frames decodes to exactly the
// records that were encoded, with heartbeats interleaved anywhere being
// skipped.
func TestFrameReaderRoundTrip(t *testing.T) {
	var stream []byte
	stream = append(stream, HeartbeatFrame()...)
	for e := uint64(1); e <= 3; e++ {
		stream = AppendRecord(stream, testRecord(e))
		stream = append(stream, HeartbeatFrame()...)
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	recs := readAllFrames(t, fr)
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if want := testRecord(uint64(i + 1)); !reflect.DeepEqual(rec, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, rec, want)
		}
	}
}

// TestFrameReaderTorn: a stream cut anywhere inside a frame reports
// ErrTorn — the reconnect signal, distinct from corruption.
func TestFrameReaderTorn(t *testing.T) {
	whole := frames(1, 1)
	for _, cut := range []int{1, 3, 5, len(whole) - 1} {
		fr := NewFrameReader(bytes.NewReader(whole[:cut]))
		if _, err := fr.Next(); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut at %d: got %v, want ErrTorn", cut, err)
		}
	}
	// A cut inside a heartbeat trailer is also torn.
	fr := NewFrameReader(bytes.NewReader(HeartbeatFrame()[:6]))
	if _, err := fr.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("cut heartbeat: got %v, want ErrTorn", err)
	}
}

// TestFrameReaderCorrupt: complete-but-invalid frames report ErrCorrupt
// — never a silent skip, never a panic.
func TestFrameReaderCorrupt(t *testing.T) {
	flipped := frames(1, 1)
	flipped[6] ^= 0x01 // payload bit flip caught by the CRC
	zeroLenBadCRC := []byte{0, 0, 0, 0, 9, 9, 9, 9}
	absurdLen := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}
	for name, stream := range map[string][]byte{
		"bit flip":            flipped,
		"empty frame bad crc": zeroLenBadCRC,
		"absurd length":       absurdLen,
	} {
		fr := NewFrameReader(bytes.NewReader(stream))
		if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDurableEpochAndChanged: the watermark tracks committed appends and
// every advance closes the previously returned Changed channel.
func TestDurableEpochAndChanged(t *testing.T) {
	l, _, err := Open(t.TempDir(), quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.DurableEpoch(); got != 0 {
		t.Fatalf("fresh log durable epoch %d, want 0", got)
	}
	ch := l.Changed()
	appendAll(t, l, 1, 1)
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Changed channel not closed by a committed append")
	}
	if got := l.DurableEpoch(); got != 1 {
		t.Fatalf("durable epoch %d after commit, want 1", got)
	}
	// Close wakes subscribers too, so a stream handler never blocks on a
	// dead log.
	ch = l.Changed()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Changed channel not closed by Close")
	}
}

// TestTailSince: the tail is exactly the durable frames past from, and
// the from ≥ durable edge returns empty without error (the handler
// layer turns from > durable into a divergence status).
func TestTailSince(t *testing.T) {
	l, _, err := Open(t.TempDir(), quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, 5)
	for _, tc := range []struct {
		from uint64
		want []uint64
	}{
		{0, []uint64{1, 2, 3, 4, 5}},
		{3, []uint64{4, 5}},
		{5, nil},
		{9, nil}, // ahead of durable: still no error from this layer
	} {
		tail, durable, err := l.TailSince(tc.from)
		if err != nil {
			t.Fatalf("TailSince(%d): %v", tc.from, err)
		}
		if durable != 5 {
			t.Fatalf("TailSince(%d) durable %d, want 5", tc.from, durable)
		}
		var got []uint64
		for _, rec := range readAllFrames(t, NewFrameReader(bytes.NewReader(tail))) {
			got = append(got, rec.Epoch)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("TailSince(%d) epochs %v, want %v", tc.from, got, tc.want)
		}
	}
}

// TestTailSinceGone: once truncation drops the records past from, the
// tail reports ErrGone instead of serving a gapped stream.
func TestTailSinceGone(t *testing.T) {
	l, _, err := Open(t.TempDir(), quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, 5)
	ckpt := func(epoch uint64) {
		t.Helper()
		if err := l.Checkpoint(epoch, func(w io.Writer) error {
			_, werr := io.WriteString(w, ckptPayload(epoch))
			return werr
		}); err != nil {
			t.Fatalf("checkpoint at %d: %v", epoch, err)
		}
	}
	// The first checkpoint sets the retention floor (0: keeps all); the
	// second truncates records ≤ 3 away.
	ckpt(3)
	if _, _, err := l.TailSince(1); err != nil {
		t.Fatalf("TailSince(1) after first checkpoint: %v", err)
	}
	ckpt(5)
	if _, _, err := l.TailSince(1); !errors.Is(err, ErrGone) {
		t.Fatalf("TailSince(1) after truncation: got %v, want ErrGone", err)
	}
	// Streaming from the newest checkpoint's epoch still works: the log
	// retains everything past the previous floor.
	if _, durable, err := l.TailSince(3); err != nil || durable != 5 {
		t.Fatalf("TailSince(3) = durable %d, %v; want 5, nil", durable, err)
	}
}

// TestOpenCheckpoint: absent before the first checkpoint, then serves
// the newest checkpoint's exact payload and epoch.
func TestOpenCheckpoint(t *testing.T) {
	l, _, err := Open(t.TempDir(), quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, ok, err := l.OpenCheckpoint(); ok || err != nil {
		t.Fatalf("fresh log OpenCheckpoint = ok %v, err %v; want absent", ok, err)
	}
	appendAll(t, l, 1, 3)
	if err := l.Checkpoint(3, func(w io.Writer) error {
		_, werr := io.WriteString(w, ckptPayload(3))
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	epoch, rc, ok, err := l.OpenCheckpoint()
	if err != nil || !ok {
		t.Fatalf("OpenCheckpoint = ok %v, err %v", ok, err)
	}
	defer rc.Close()
	if epoch != 3 {
		t.Fatalf("checkpoint epoch %d, want 3", epoch)
	}
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != ckptPayload(3) {
		t.Fatalf("checkpoint payload %q, want %q", data, ckptPayload(3))
	}
}

// TestTailSinceGroupCommitCap: under interval sync, bytes appended but
// not yet fsync'd must not appear in a tail — a follower may never hold
// epochs a primary crash would disown.
func TestTailSinceGroupCommitCap(t *testing.T) {
	opt := quietOpt(nil)
	opt.Sync = SyncEveryInterval
	opt.SyncInterval = time.Hour // flusher effectively off: sync only on demand
	l, _, err := Open(t.TempDir(), opt, testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	tail, durable, err := l.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if durable != 0 || len(tail) != 0 {
		t.Fatalf("unsynced append leaked into tail: durable %d, %d byte(s)", durable, len(tail))
	}
}
