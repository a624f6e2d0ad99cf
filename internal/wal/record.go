// Record framing: the crash-safe on-disk encoding of one applied triple
// batch. A record is length-prefixed and CRC32-framed so a reader can
// tell exactly three states apart — valid, torn (the file ends inside
// the frame: a crash mid-append), and corrupt (a complete frame whose
// checksum or payload is wrong: bit rot or a foreign writer):
//
//	frame   := [uint32 LE payloadLen] [payload] [uint32 LE CRC32(payload)]
//	payload := uvarint epoch
//	           uvarint nDels  nDels × triple     (dels first: Apply order)
//	           uvarint nAdds  nAdds × triple
//	triple  := string S  string P  string O      (uvarint length + bytes)
//
// The CRC uses the IEEE polynomial over the payload only, mirroring the
// graph snapshot trailer (kg/snapshot.go). Epochs are the post-apply epoch of the
// batch: replaying record N over the graph state at epoch N-1 must
// republish exactly epoch N.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"repro/internal/kg"
)

// ErrCorrupt is wrapped by every error reported for a structurally
// complete but invalid record or log — a checksum mismatch, a malformed
// payload, a bad header, an epoch gap. Recovery refuses to start on it:
// acknowledged writes may be missing and silently proceeding would
// diverge from what clients were told.
var ErrCorrupt = errors.New("wal: corrupt")

// ErrTorn is wrapped by errors reported when a record frame extends past
// the end of the log — the signature of a crash between append and
// completion. Only the final record of a log can legitimately be torn;
// recovery truncates it (the batch was never acknowledged: its fsync
// cannot have returned) and reports the dropped bytes.
var ErrTorn = errors.New("wal: torn record")

// Record is one applied triple batch: the post-apply epoch plus the adds
// and dels exactly as they were passed to Versioned.Apply.
type Record struct {
	Epoch uint64
	Adds  []kg.Triple
	Dels  []kg.Triple
}

// frameOverhead is the framing cost per record: the length prefix plus
// the CRC trailer.
const frameOverhead = 8

// maxRecordLen caps a record payload (64 MiB). A length prefix above it
// is treated as corruption rather than an instruction to allocate.
const maxRecordLen = 64 << 20

// AppendRecord appends rec's framed encoding to buf and returns the
// extended slice.
func AppendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	p := len(buf)
	buf = binary.AppendUvarint(buf, rec.Epoch)
	buf = appendTriples(buf, rec.Dels)
	buf = appendTriples(buf, rec.Adds)
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(buf, crc[:]...)
}

func appendTriples(buf []byte, ts []kg.Triple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		for _, s := range [3]string{t.S, t.P, t.O} {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

// ReadRecord parses the first framed record in b, returning the record
// and the bytes consumed. Errors wrap exactly one of ErrTorn (the frame
// runs past len(b): a crash tail) or ErrCorrupt (a complete frame that
// fails its checksum or decodes to nonsense). Arbitrary input never
// panics; see FuzzRecord.
func ReadRecord(b []byte) (Record, int, error) {
	if len(b) < 4 {
		return Record{}, 0, fmt.Errorf("%w: %d byte(s) of length prefix", ErrTorn, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxRecordLen {
		// A length this large is never written; if the remaining file could
		// not hold it anyway the frame is indistinguishable from a torn one,
		// but an in-range file position claiming it is corruption.
		if uint64(len(b)) < uint64(n)+frameOverhead {
			return Record{}, 0, fmt.Errorf("%w: length prefix %d exceeds remaining %d bytes", ErrTorn, n, len(b)-frameOverhead)
		}
		return Record{}, 0, fmt.Errorf("%w: length prefix %d exceeds cap %d", ErrCorrupt, n, maxRecordLen)
	}
	total := int(n) + frameOverhead
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("%w: frame wants %d bytes, log holds %d", ErrTorn, total, len(b))
	}
	payload := b[4 : 4+n]
	want := binary.LittleEndian.Uint32(b[4+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch: frame %08x, computed %08x", ErrCorrupt, want, got)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, total, nil
}

// decodePayload decodes a checksum-verified payload. Failures are still
// possible — the CRC guards transport, not the encoder's grammar — and
// all of them are ErrCorrupt.
func decodePayload(p []byte) (Record, error) {
	var rec Record
	var err error
	rec.Epoch, p, err = readUvarint(p, "epoch")
	if err != nil {
		return Record{}, err
	}
	rec.Dels, p, err = readTriples(p, "dels")
	if err != nil {
		return Record{}, err
	}
	rec.Adds, p, err = readTriples(p, "adds")
	if err != nil {
		return Record{}, err
	}
	if len(p) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing payload byte(s)", ErrCorrupt, len(p))
	}
	return rec, nil
}

func readUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint (%s)", ErrCorrupt, what)
	}
	// Only canonical (minimal-length) encodings are accepted: the encoder
	// never writes padded continuation bytes, so decode∘encode is exactly
	// the identity on valid frames — the invariant recovery's byte
	// arithmetic and FuzzRecord's round trip both lean on.
	if size := (bits.Len64(v|1) + 6) / 7; n != size {
		return 0, nil, fmt.Errorf("%w: non-canonical uvarint (%s)", ErrCorrupt, what)
	}
	return v, p[n:], nil
}

func readTriples(p []byte, what string) ([]kg.Triple, []byte, error) {
	n, p, err := readUvarint(p, what+" count")
	if err != nil {
		return nil, nil, err
	}
	// Three non-empty terms cost at least 3 length bytes; a count beyond
	// that is a lie about data the payload cannot hold.
	if n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: %s count %d exceeds payload", ErrCorrupt, what, n)
	}
	if n == 0 {
		return nil, p, nil
	}
	ts := make([]kg.Triple, n)
	for i := range ts {
		for j, dst := range [3]*string{&ts[i].S, &ts[i].P, &ts[i].O} {
			var l uint64
			l, p, err = readUvarint(p, what+" term length")
			if err != nil {
				return nil, nil, err
			}
			if l > uint64(len(p)) {
				return nil, nil, fmt.Errorf("%w: %s term %d/%d length %d exceeds payload", ErrCorrupt, what, i, j, l)
			}
			*dst = string(p[:l])
			p = p[l:]
		}
	}
	return ts, p, nil
}
