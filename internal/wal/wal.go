// Package wal is the crash-safe, epoch-tagged write-ahead log behind
// durable ingest: every effective triple batch an engine acknowledges is
// framed (see record.go), appended to one log file, and fsync'd before
// the acknowledgement, so process death never silently rewinds the graph
// past a write a client was told landed.
//
// Directory layout (all files under one WAL directory):
//
//	wal.log              header ("NCWAL\x00\x01" + uint32 LE version),
//	                     then CRC32-framed records in epoch order
//	ckpt-%016x.snap      checkpoints: opaque payloads (a kg snapshot in
//	                     practice) named by the epoch they capture
//	*.tmp                in-flight writes; removed on open
//
// Durability protocol. Appends go to an append-only handle; a record is
// acknowledged only after its Commit returns, and a Commit fsyncs inline
// unless an earlier fsync or checkpoint rewrite already covered its epoch
// (concurrent committers share one fsync that way). Because records
// enter the file in epoch order, any fsync durably commits a *prefix* of
// the epoch sequence: recovery never sees epoch N without N-1, and one
// durable epoch watermark says exactly what survives a crash.
//
// Checkpoints. Checkpoint writes the payload to a temp file, fsyncs it,
// atomically renames it into place, fsyncs the directory, and only then
// truncates the log — rewriting it to hold just the records newer than
// the *previous* checkpoint, so the newest checkpoint plus the log tail
// always reconstructs the current state, and even if the newest
// checkpoint is later unreadable the retained older one still can.
//
// Recovery (Open) loads the newest checkpoint that validates (the caller
// verifies payload integrity — kg snapshots carry their own CRC), then
// scans the log: records at or below the checkpoint epoch are skipped,
// the rest are returned for replay in order. A final record cut short by
// a crash (the frame runs past end-of-file) is truncated and reported —
// its batch was never acknowledged, because its fsync cannot have
// returned. Anything else wrong — a checksum mismatch, an epoch gap, a
// bad header — refuses startup with an error wrapping ErrCorrupt:
// acknowledged writes may be missing, and serving anyway would diverge
// from what clients were told.
//
// Every filesystem touch goes through the FS seam (fs.go), so the
// fault-injection tests can kill the pipeline between any write, fsync,
// and rename and prove recovery from the surviving bytes.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Log file identity.
const (
	logName    = "wal.log"
	logMagic   = "NCWAL\x00\x01"
	logVersion = 1
	headerLen  = len(logMagic) + 4

	ckptPrefix = "ckpt-"
	ckptSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy names the log's fsync policy. There is one, SyncEveryBatch;
// the type and Options.Sync remain only because the benchmark harness
// sets them.
type SyncPolicy int

// SyncEveryBatch fsyncs inline on every Commit whose epoch is not yet
// durable: one fsync per batch at most, shared by concurrent commits.
const SyncEveryBatch SyncPolicy = 0

// Options configures a Log.
type Options struct {
	// FS is the filesystem seam; nil selects the os-backed one.
	FS FS
	// Sync is the fsync policy; SyncEveryBatch is the only one. Kept for
	// the benchmark harness, which sets it.
	Sync SyncPolicy
	// Logf receives recovery and checkpoint log lines (default
	// log.Printf; tests pass t.Logf or a no-op).
	Logf func(format string, args ...any)
	// FsyncObs, when non-nil, receives the duration of every append-path
	// fsync — the disk-health distribution behind the
	// nc_wal_fsync_seconds histogram. Observation is a few atomic adds
	// on the sync path (which just paid a disk flush); nil costs one
	// branch.
	FsyncObs *obs.Histogram
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Recovery summarizes what Open reconstructed: which checkpoint booted
// the state, the records the caller must replay over it (in epoch
// order), and what was dropped or skipped along the way.
type Recovery struct {
	// HasCheckpoint reports whether a checkpoint was loaded;
	// CheckpointEpoch is its epoch (0 without one: the caller starts from
	// its bootstrap state at epoch 0).
	HasCheckpoint   bool
	CheckpointEpoch uint64
	// Records is the log tail to replay: every durable record with epoch
	// > CheckpointEpoch, ascending and gap-free.
	Records []Record
	// TruncatedBytes counts torn-tail bytes dropped from the log's end —
	// the residue of a crash mid-append, never an acknowledged write.
	TruncatedBytes int64
	// SkippedCheckpoints counts checkpoint files that failed to load and
	// were discarded in favor of an older one.
	SkippedCheckpoints int
}

// Stats is a point-in-time summary for observability endpoints.
type Stats struct {
	// Bytes is the log file's current size, header included.
	Bytes int64
	// Records is the number of valid records currently in the log file
	// (recovered and appended, minus those dropped by checkpoint
	// truncation).
	Records int64
	// LastFsync is the duration of the most recent fsync (0 before the
	// first) — the disk-health signal behind the wal_last_fsync_ms gauge.
	LastFsync time.Duration
	// CheckpointEpoch is the newest durable checkpoint's epoch (0 when
	// none exists yet).
	CheckpointEpoch uint64
}

// Commit blocks until the record whose Append returned it is durable,
// and reports the outcome. A non-nil error means the record's
// durability is unknown at best — the log is sticky-failed and every
// later Append and Commit returns the same error.
type Commit func() error

// Log is an open write-ahead log. Safe for concurrent use; appends are
// serialized internally and must arrive in epoch order (the engine's
// apply lock guarantees it).
type Log struct {
	dir string
	opt Options

	mu        sync.Mutex
	f         File  // append handle
	size      int64 // bytes in the log file (valid prefix)
	records   int64
	lastEpoch uint64 // epoch of the newest record (or checkpoint, if newer)
	ckptEpoch uint64 // newest checkpoint
	prevCkpt  uint64 // older retained checkpoint: the log's truncation floor
	lastFsync time.Duration
	err       error // sticky: first write/fsync/truncate failure
	closed    bool

	// Durability and replication watermarks (stream.go). durableEpoch
	// trails lastEpoch until an fsync or log rewrite covers it; Commit
	// and TailSince both read it. oldestInLog is the epoch of the oldest
	// record still in the file (0 when the file holds none) — TailSince's
	// gone-detection floor; notifyCh is close-and-replaced on every
	// durable advance, sticky failure, or close.
	durableEpoch uint64
	oldestInLog  uint64
	notifyCh     chan struct{}

	buf []byte // append encode scratch, guarded by mu
}

// Open opens (creating if necessary) the WAL in dir and recovers its
// state. Checkpoints are offered newest-first to load, which must
// rebuild the caller's state from the payload and return nil only if the
// payload fully validates (kg.ReadSnapshot's CRC check, in practice); a
// failing checkpoint is discarded and the next older one tried. The
// returned Recovery carries the log tail to replay over whatever load
// accepted (or over the caller's bootstrap state when no checkpoint
// exists).
//
// Open truncates a torn final record, reporting the dropped bytes, and
// fails with an error wrapping ErrCorrupt on anything worse: a mid-log
// checksum failure, an epoch gap, a bad header, or a directory whose
// every checkpoint is unreadable.
func Open(dir string, opt Options, load func(epoch uint64, payload io.Reader) error) (*Log, Recovery, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: listing %s: %w", dir, err)
	}

	// Sweep in-flight temp files: they are from writes that never renamed
	// into place, so they were never part of the durable state.
	var ckptEpochs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			if err := fs.Remove(joinPath(dir, name)); err != nil {
				return nil, Recovery{}, fmt.Errorf("wal: removing stale %s: %w", name, err)
			}
			continue
		}
		if e, ok := parseCkptName(name); ok {
			ckptEpochs = append(ckptEpochs, e)
		}
	}
	sort.Slice(ckptEpochs, func(i, j int) bool { return ckptEpochs[i] > ckptEpochs[j] })

	var rec Recovery
	for _, e := range ckptEpochs {
		if rec.HasCheckpoint {
			break
		}
		path := joinPath(dir, ckptName(e))
		f, err := fs.Open(path)
		if err == nil {
			err = load(e, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			opt.Logf("wal: skipping checkpoint epoch %d: %v", e, err)
			rec.SkippedCheckpoints++
			if rerr := fs.Remove(path); rerr != nil {
				return nil, Recovery{}, fmt.Errorf("wal: removing bad checkpoint: %w", rerr)
			}
			continue
		}
		rec.HasCheckpoint, rec.CheckpointEpoch = true, e
	}
	if !rec.HasCheckpoint && len(ckptEpochs) > 0 {
		return nil, Recovery{}, fmt.Errorf("%w: all %d checkpoint(s) unreadable", ErrCorrupt, len(ckptEpochs))
	}

	l := &Log{dir: dir, opt: opt, ckptEpoch: rec.CheckpointEpoch, lastEpoch: rec.CheckpointEpoch}
	l.notifyCh = make(chan struct{})
	if rec.HasCheckpoint {
		// The retained-older-checkpoint floor restarts at the loaded one:
		// records at or below it were only kept for its sake.
		l.prevCkpt = rec.CheckpointEpoch
	}
	if err := l.recoverLog(&rec); err != nil {
		return nil, Recovery{}, err
	}
	// Everything recovery accepted is on disk by definition.
	l.durableEpoch = l.lastEpoch
	return l, rec, nil
}

// recoverLog scans the log file, truncates a torn tail, validates epoch
// contiguity, fills rec.Records, and leaves l holding an open append
// handle positioned after the last valid record.
func (l *Log) recoverLog(rec *Recovery) error {
	fs := l.opt.FS
	path := joinPath(l.dir, logName)
	data, err := readAll(fs, path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return l.createLog()
	case err != nil:
		return fmt.Errorf("wal: reading log: %w", err)
	}
	if len(data) < headerLen {
		// A crash during log creation: nothing durable was ever appended
		// (the header is fsync'd before the first Append can run), so
		// rebuild the header rather than refuse.
		rec.TruncatedBytes += int64(len(data))
		if err := fs.Remove(path); err != nil {
			return fmt.Errorf("wal: removing torn log header: %w", err)
		}
		return l.createLog()
	}
	if string(data[:len(logMagic)]) != logMagic {
		return fmt.Errorf("%w: log magic %q, want %q", ErrCorrupt, data[:len(logMagic)], logMagic)
	}
	if v := le32(data[len(logMagic):]); v != logVersion {
		return fmt.Errorf("%w: log version %d, want %d", ErrCorrupt, v, logVersion)
	}

	off := headerLen
	prev := uint64(0)
	for off < len(data) {
		r, n, err := ReadRecord(data[off:])
		if err == nil && l.oldestInLog == 0 {
			l.oldestInLog = r.Epoch
		}
		if errors.Is(err, ErrTorn) {
			rec.TruncatedBytes += int64(len(data) - off)
			l.opt.Logf("wal: truncating torn final record: %d byte(s) at offset %d (%v)", len(data)-off, off, err)
			if terr := fs.Truncate(path, int64(off)); terr != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
			break
		}
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", off, err)
		}
		if prev != 0 && r.Epoch != prev+1 {
			return fmt.Errorf("%w: epoch gap in log: %d follows %d", ErrCorrupt, r.Epoch, prev)
		}
		prev = r.Epoch
		off += n
		l.records++
		if r.Epoch > rec.CheckpointEpoch {
			rec.Records = append(rec.Records, r)
		}
	}
	if len(rec.Records) > 0 && rec.Records[0].Epoch != rec.CheckpointEpoch+1 {
		return fmt.Errorf("%w: replay gap: checkpoint at epoch %d but oldest log record past it is %d",
			ErrCorrupt, rec.CheckpointEpoch, rec.Records[0].Epoch)
	}
	if prev > l.lastEpoch {
		l.lastEpoch = prev
	}
	l.size = int64(off)
	f, err := fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("wal: opening log for append: %w", err)
	}
	l.f = f
	return nil
}

// createLog writes a fresh header-only log file, durably.
func (l *Log) createLog() error {
	fs := l.opt.FS
	f, err := fs.OpenAppend(joinPath(l.dir, logName))
	if err != nil {
		return fmt.Errorf("wal: creating log: %w", err)
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, logMagic...)
	hdr = appendLE32(hdr, logVersion)
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: writing log header: %w", err)
	}
	if err := fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsyncing dir: %w", err)
	}
	l.f = f
	l.size = int64(headerLen)
	return nil
}

// Append writes rec to the log and returns a Commit that blocks until
// the record is durable. The record's epoch must be exactly one past the
// log's newest (checkpoint or record): the log is the serialization of
// the epoch sequence, and a gap here is an ordering bug upstream,
// reported loudly rather than persisted.
//
// Errors are sticky: after any write or fsync failure the log refuses
// every further Append with the original error, because a record it
// could not make durable must not be acknowledged — and later records
// must not leapfrog it.
func (l *Log) Append(rec Record) (Commit, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	if l.closed {
		return nil, ErrClosed
	}
	if rec.Epoch != l.lastEpoch+1 {
		return nil, fmt.Errorf("wal: out-of-order append: epoch %d after %d", rec.Epoch, l.lastEpoch)
	}
	l.buf = AppendRecord(l.buf[:0], rec)
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err == nil && n != len(l.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.fail(fmt.Errorf("wal: appending record (epoch %d): %w", rec.Epoch, err))
		return nil, l.err
	}
	l.records++
	l.lastEpoch = rec.Epoch
	if l.oldestInLog == 0 {
		l.oldestInLog = rec.Epoch
	}
	epoch := rec.Epoch
	return func() error { return l.commit(epoch) }, nil
}

// commit fsyncs unless the durable watermark already covers epoch — an
// earlier commit's fsync, a checkpoint's log rewrite, or Close did.
func (l *Log) commit(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && l.durableEpoch < epoch {
		l.syncLocked()
	}
	return l.err
}

// syncLocked fsyncs the append handle and advances the watermark.
// Caller holds l.mu.
func (l *Log) syncLocked() {
	start := time.Now()
	err := l.f.Sync()
	l.lastFsync = time.Since(start)
	if l.opt.FsyncObs != nil {
		l.opt.FsyncObs.Observe(l.lastFsync)
	}
	if err != nil {
		l.fail(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.durableEpoch = l.lastEpoch
	l.bumpLocked()
}

// fail records the sticky error and wakes every Changed subscriber.
// Caller holds l.mu.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.bumpLocked()
}

// Checkpoint durably persists a state snapshot for epoch: write writes
// the payload (a kg snapshot, opaque to the log) to a temp file, which
// is fsync'd and atomically renamed into place before the log is
// truncated. Only records newer than the *previous* checkpoint are
// dropped, and only the two newest checkpoints are retained — so
// recovery can always fall back one checkpoint without losing replay
// coverage. A checkpoint at or below the newest one is a no-op (a stale
// compaction racing a newer one).
//
// Safe to call concurrently with Append; the slow payload write happens
// outside the log lock.
func (l *Log) Checkpoint(epoch uint64, write func(w io.Writer) error) error {
	l.mu.Lock()
	if l.err != nil || l.closed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	if epoch <= l.ckptEpoch {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	fs := l.opt.FS
	final := joinPath(l.dir, ckptName(epoch))
	tmp := final + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint temp: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return fmt.Errorf("wal: writing checkpoint (epoch %d): %w", epoch, err)
	}

	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || epoch <= l.ckptEpoch {
		l.mu.Unlock()
		_ = fs.Remove(tmp)
		l.mu.Lock()
		return nil
	}
	if err := fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publishing checkpoint (epoch %d): %w", epoch, err)
	}
	if err := fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: fsyncing dir after checkpoint: %w", err)
	}
	floor := l.ckptEpoch // the now-second-newest checkpoint: the retention floor
	l.prevCkpt = floor
	l.ckptEpoch = epoch
	if epoch > l.lastEpoch {
		l.lastEpoch = epoch
	}
	// Retention: checkpoints older than the new floor are superseded twice
	// over; their replay coverage is about to leave the log too.
	if names, err := fs.ReadDir(l.dir); err == nil {
		for _, name := range names {
			if e, ok := parseCkptName(name); ok && e < floor {
				_ = fs.Remove(joinPath(l.dir, name))
			}
		}
	}
	if err := l.truncateLocked(floor); err != nil {
		// The checkpoint itself is durable; a failed truncation only leaves
		// extra (harmless) records behind, but the log handle's state is no
		// longer trustworthy — fail sticky and let the operator restart.
		l.fail(fmt.Errorf("wal: truncating log after checkpoint: %w", err))
		return l.err
	}
	l.opt.Logf("wal: checkpoint at epoch %d (%v); log now %d record(s), %d byte(s)",
		epoch, time.Since(start).Round(time.Millisecond), l.records, l.size)
	return nil
}

// truncateLocked rewrites the log to hold only records with epoch >
// floor: copy the surviving frames to a temp file, fsync, rename over
// the log, reopen the append handle. Caller holds l.mu (appends are
// paused for the duration).
func (l *Log) truncateLocked(floor uint64) error {
	fs := l.opt.FS
	path := joinPath(l.dir, logName)
	data, err := readAll(fs, path)
	if err != nil {
		return err
	}
	// The in-memory watermark is authoritative: a concurrent reader (none
	// today) must never see past l.size.
	if int64(len(data)) > l.size {
		data = data[:l.size]
	}
	out := make([]byte, 0, headerLen+len(data)/2)
	out = append(out, logMagic...)
	out = appendLE32(out, logVersion)
	kept := int64(0)
	oldest := uint64(0)
	for off := headerLen; off < len(data); {
		r, n, err := ReadRecord(data[off:])
		if err != nil {
			return fmt.Errorf("reparsing log for truncation at offset %d: %w", off, err)
		}
		if r.Epoch > floor {
			out = append(out, data[off:off+n]...)
			kept++
			if oldest == 0 {
				oldest = r.Epoch
			}
		}
		off += n
	}
	tmp := path + tmpSuffix
	tf, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = tf.Write(out)
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	if err := fs.SyncDir(l.dir); err != nil {
		return err
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return err
	}
	l.f = f
	l.size = int64(len(out))
	l.records = kept
	l.oldestInLog = oldest
	// The rewrite fsync'd everything it kept — including records whose
	// Commit has not run yet — and the checkpoint that triggered it is
	// durable, so the durable watermark catches up to the newest epoch and
	// those commits return without another fsync.
	l.durableEpoch = l.lastEpoch
	l.bumpLocked()
	return nil
}

// Stats summarizes the log for observability.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Bytes:           l.size,
		Records:         l.records,
		LastFsync:       l.lastFsync,
		CheckpointEpoch: l.ckptEpoch,
	}
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes any unsynced records and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.err == nil && l.durableEpoch < l.lastEpoch {
		l.syncLocked()
	}
	err := l.err
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	l.bumpLocked()
	l.mu.Unlock()
	return err
}

// ckptName renders the checkpoint filename for an epoch; fixed-width hex
// keeps lexical and numeric order identical.
func ckptName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, epoch, ckptSuffix)
}

// parseCkptName extracts the epoch from a checkpoint filename.
func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hexa := name[len(ckptPrefix) : len(name)-len(ckptSuffix)]
	if len(hexa) != 16 {
		return 0, false
	}
	e, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// readAll reads name through fs in full.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = io.Copy(&buf, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func appendLE32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
