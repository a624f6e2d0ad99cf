// The replication seam: everything a primary needs to ship its log to
// followers over a byte stream, and everything a follower needs to read
// it back. The wire format IS the log format — the same CRC32 frames
// recovery parses from disk (record.go) are copied verbatim onto the
// stream, so a follower applies exactly the bytes the primary fsync'd,
// and the epoch-contiguity invariant (no record N without N-1) carries
// over to replication for free. Only durable records are ever shipped:
// a follower can never get ahead of what a primary restart would
// recover, so a primary crash never leaves a replica holding epochs the
// recovered primary disowns.
//
// One extra frame kind exists on the wire only: a heartbeat — an empty
// frame (zero length prefix, zero CRC, which is the CRC of an empty
// payload) the primary emits on an idle stream so a follower can tell a
// quiet primary from a dead TCP connection. Heartbeats never enter the
// log file; FrameReader swallows them.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrGone is wrapped by TailSince when records past the requested epoch
// have been truncated behind a checkpoint: the log can no longer replay
// a follower from there, and the follower must bootstrap from a
// snapshot instead.
var ErrGone = errors.New("wal: epoch truncated from log")

// heartbeatFrame is the idle-stream keepalive: a zero-length payload
// whose CRC32 (of nothing) is zero — eight zero bytes. ReadRecord
// rejects it (log files never contain one); FrameReader skips it.
var heartbeatFrame = [frameOverhead]byte{}

// HeartbeatFrame returns the wire keepalive frame a replication stream
// may interleave between records.
func HeartbeatFrame() []byte { return heartbeatFrame[:] }

// FrameReader incrementally decodes framed records from a replication
// stream. Unlike ReadRecord it consumes an io.Reader — a follower feeds
// it the chunked HTTP body — and it skips the heartbeat frames a primary
// emits on idle streams. Arbitrary input never panics; see
// FuzzFrameReader.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r for incremental frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Next returns the next record on the stream, skipping heartbeats. A
// clean end of stream (between frames) is io.EOF; a stream cut inside a
// frame wraps ErrTorn; a complete frame that fails validation wraps
// ErrCorrupt, exactly as ReadRecord would report it.
func (fr *FrameReader) Next() (Record, error) {
	for {
		var prefix [4]byte
		if _, err := io.ReadFull(fr.r, prefix[:]); err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			return Record{}, fmt.Errorf("%w: stream cut inside length prefix: %v", ErrTorn, err)
		}
		n := binary.LittleEndian.Uint32(prefix[:])
		if n == 0 {
			// Candidate heartbeat: the trailer must still be the CRC of the
			// empty payload (zero), or the frame is garbage.
			var crc [4]byte
			if _, err := io.ReadFull(fr.r, crc[:]); err != nil {
				return Record{}, fmt.Errorf("%w: stream cut inside heartbeat: %v", ErrTorn, err)
			}
			if binary.LittleEndian.Uint32(crc[:]) != 0 {
				return Record{}, fmt.Errorf("%w: empty frame with nonzero checksum", ErrCorrupt)
			}
			continue
		}
		if n > maxRecordLen {
			return Record{}, fmt.Errorf("%w: length prefix %d exceeds cap %d", ErrCorrupt, n, maxRecordLen)
		}
		total := int(n) + frameOverhead
		if cap(fr.buf) < total {
			fr.buf = make([]byte, total)
		}
		frame := fr.buf[:total]
		copy(frame, prefix[:])
		if _, err := io.ReadFull(fr.r, frame[4:]); err != nil {
			return Record{}, fmt.Errorf("%w: stream cut inside frame (want %d bytes): %v", ErrTorn, total, err)
		}
		rec, _, err := ReadRecord(frame)
		return rec, err
	}
}

// DurableEpoch returns the newest epoch the log guarantees would survive
// a crash right now: every record at or below it is covered by a
// completed fsync (a checkpoint newer than every record counts too).
// This is the replication watermark — TailSince never serves past it.
func (l *Log) DurableEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableEpoch
}

// Changed returns a channel that is closed the next time the durable
// epoch advances, the log sticky-fails, or the log closes — the wakeup a
// live replication stream blocks on between tail reads. Callers must
// re-call Changed after each wakeup; the returned channel fires once.
func (l *Log) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notifyCh
}

// bumpLocked wakes every Changed subscriber. Caller holds l.mu.
func (l *Log) bumpLocked() {
	close(l.notifyCh)
	l.notifyCh = make(chan struct{})
}

// TailSince returns the raw framed bytes of every durable record with
// epoch in (from, DurableEpoch], plus the durable epoch itself. The
// bytes are verbatim log frames, ready to copy onto a replication
// stream. A from at (or past) the durable epoch returns an empty tail —
// the caller distinguishes "caught up" (from == durable) from "ahead of
// the primary" (from > durable, a divergence). When records past from
// have been truncated behind a checkpoint the tail cannot be served and
// the error wraps ErrGone: the follower must bootstrap from a snapshot.
func (l *Log) TailSince(from uint64) ([]byte, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, 0, l.err
	}
	if l.closed {
		return nil, 0, ErrClosed
	}
	durable := l.durableEpoch
	if from >= durable {
		return nil, durable, nil
	}
	// The log must hold epoch from+1 onward. oldestInLog is 0 when the
	// file holds no records at all — then every epoch ≤ durable lives only
	// in checkpoints.
	if l.oldestInLog == 0 || from+1 < l.oldestInLog {
		return nil, durable, fmt.Errorf("%w: want epochs > %d, log starts at %d", ErrGone, from, l.oldestInLog)
	}
	data, err := readAll(l.opt.FS, joinPath(l.dir, logName))
	if err != nil {
		return nil, durable, fmt.Errorf("wal: reading log for tail: %w", err)
	}
	var out []byte
	for off := headerLen; off < len(data); {
		r, n, err := ReadRecord(data[off:])
		if err != nil {
			return nil, durable, fmt.Errorf("wal: reparsing log for tail at offset %d: %w", off, err)
		}
		if r.Epoch > from && r.Epoch <= durable {
			out = append(out, data[off:off+n]...)
		}
		off += n
	}
	return out, durable, nil
}

// OpenCheckpoint opens the newest durable checkpoint for reading — the
// snapshot-bootstrap payload a late-joining follower downloads before
// streaming the tail. ok is false when no checkpoint exists yet. The
// caller owns the returned reader; the underlying file stays readable
// even if a newer checkpoint later supersedes and unlinks it.
func (l *Log) OpenCheckpoint() (epoch uint64, rc io.ReadCloser, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, nil, false, ErrClosed
	}
	if l.ckptEpoch == 0 {
		return 0, nil, false, nil
	}
	f, err := l.opt.FS.Open(joinPath(l.dir, ckptName(l.ckptEpoch)))
	if err != nil {
		return 0, nil, false, fmt.Errorf("wal: opening checkpoint for export: %w", err)
	}
	return l.ckptEpoch, &fileReadCloser{f}, true, nil
}

// fileReadCloser adapts the FS seam's File to io.ReadCloser.
type fileReadCloser struct{ f File }

func (rc *fileReadCloser) Read(p []byte) (int, error) { return rc.f.Read(p) }
func (rc *fileReadCloser) Close() error               { return rc.f.Close() }
