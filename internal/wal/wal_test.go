package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kg"
	"repro/internal/obs"
)

// testRecord builds the record for an epoch: distinct content per epoch
// so replay mix-ups surface as data mismatches, not just epoch gaps.
func testRecord(epoch uint64) Record {
	return Record{Epoch: epoch, Adds: []kg.Triple{
		{S: fmt.Sprintf("s%d", epoch), P: "p", O: fmt.Sprintf("o%d", epoch)},
	}}
}

// ckptPayload is the checkpoint body the tests write and validate: the
// stand-in for a kg snapshot, with load as its integrity check.
func ckptPayload(epoch uint64) string { return fmt.Sprintf("state@%d", epoch) }

// testLoad validates a checkpoint payload and reports the epoch it
// restored through got.
func testLoad(got *uint64) func(uint64, io.Reader) error {
	return func(epoch uint64, payload io.Reader) error {
		data, err := io.ReadAll(payload)
		if err != nil {
			return err
		}
		if string(data) != ckptPayload(epoch) {
			return fmt.Errorf("checkpoint payload %q does not validate", data)
		}
		if got != nil {
			*got = epoch
		}
		return nil
	}
}

func quietOpt(fs FS) Options {
	return Options{FS: fs, Logf: func(string, ...any) {}}
}

// appendAll appends and commits records for epochs [from, to].
func appendAll(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for e := from; e <= to; e++ {
		commit, err := l.Append(testRecord(e))
		if err != nil {
			t.Fatalf("append epoch %d: %v", e, err)
		}
		if err := commit(); err != nil {
			t.Fatalf("commit epoch %d: %v", e, err)
		}
	}
}

// TestLogAppendRecover: a fresh log accepts an epoch-contiguous sequence
// and a reopen returns exactly the committed records.
func TestLogAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.HasCheckpoint || len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendAll(t, l, 1, 5)
	st := l.Stats()
	if st.Records != 5 || st.Bytes <= int64(headerLen) || st.LastFsync <= 0 {
		t.Fatalf("stats after 5 appends: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec2.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if want := testRecord(uint64(i + 1)); !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want)
		}
	}
	// Appends resume exactly after the recovered tail.
	if _, err := l2.Append(testRecord(5)); err == nil {
		t.Fatal("re-appending epoch 5 after recovery succeeded")
	}
}

// TestLogAppendOutOfOrder: an epoch gap at append time is an upstream
// ordering bug and must be refused, not persisted.
func TestLogAppendOutOfOrder(t *testing.T) {
	l, _, err := Open(t.TempDir(), quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(testRecord(2)); err == nil {
		t.Fatal("append at epoch 2 on a fresh log succeeded")
	}
	appendAll(t, l, 1, 1)
	if _, err := l.Append(testRecord(3)); err == nil {
		t.Fatal("append skipping epoch 2 succeeded")
	}
}

// TestLogGroupCommit: concurrent commits all return durable, sharing
// fsyncs (never more than one per record), and a reopen sees every
// acknowledged record.
func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	opt := quietOpt(nil)
	opt.FsyncObs = obs.NewHistogram(nil)
	l, _, err := Open(dir, opt, testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	commits := make([]Commit, 0, n)
	for e := uint64(1); e <= n; e++ {
		c, err := l.Append(testRecord(e))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
	}
	var wg sync.WaitGroup
	for i, c := range commits {
		wg.Add(1)
		go func(i int, c Commit) {
			defer wg.Done()
			if err := c(); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i, c)
	}
	wg.Wait()
	if got := opt.FsyncObs.Count(); got < 1 || got > n {
		t.Fatalf("%d commits ran %d fsyncs, want 1..%d", n, got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d of %d concurrently committed records", len(rec.Records), n)
	}
}

// TestCommitAfterCheckpointRewrite: a checkpoint's log rewrite fsyncs
// every record it keeps, so a commit it already covered returns at once
// without a second fsync — even though the rewrite shrank the log below
// the byte offset the record was appended at.
func TestCommitAfterCheckpointRewrite(t *testing.T) {
	opt := quietOpt(nil)
	opt.FsyncObs = obs.NewHistogram(nil)
	l, _, err := Open(t.TempDir(), opt, testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ckpt := func(epoch uint64) {
		t.Helper()
		if err := l.Checkpoint(epoch, func(w io.Writer) error {
			_, werr := io.WriteString(w, ckptPayload(epoch))
			return werr
		}); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(t, l, 1, 3)
	ckpt(3)
	var last Commit
	for e := uint64(4); e <= 6; e++ {
		if last, err = l.Append(testRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Bytes
	ckpt(6) // keeps 4..6, drops 1..3: the log shrinks
	if after := l.Stats().Bytes; after >= before {
		t.Fatalf("checkpoint rewrite did not shrink the log: %d -> %d bytes", before, after)
	}
	fsyncs := opt.FsyncObs.Count()
	done := make(chan error, 1)
	go func() { done <- last() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit of epoch 6 after checkpoint: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit of epoch 6 hung after the checkpoint covered it")
	}
	if extra := opt.FsyncObs.Count() - fsyncs; extra != 0 {
		t.Fatalf("commit already covered by the checkpoint rewrite ran %d fsync(s), want 0", extra)
	}
}

// TestLogTornTail: bytes beyond the last complete frame are truncated on
// open — once — and the complete records all survive.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	// The truncation is durable: the log accepts the re-append of epoch 3
	// and a further reopen is clean.
	appendAll(t, l2, 3, 3)
	l2.Close()
	_, rec3, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TruncatedBytes != 0 || len(rec3.Records) != 3 {
		t.Fatalf("second reopen: %+v", rec3)
	}
}

// TestLogMidCorruption: a complete frame that fails its checksum refuses
// startup with ErrCorrupt — whether mid-log or final.
func TestLogMidCorruption(t *testing.T) {
	for _, flipInLast := range []bool{false, true} {
		dir := t.TempDir()
		l, _, err := Open(dir, quietOpt(nil), testLoad(nil))
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, 1, 3)
		size := l.Stats().Bytes
		l.Close()
		path := filepath.Join(dir, logName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := headerLen + 6 // inside the first record's payload
		if flipInLast {
			off = int(size) - 6 // inside the last record's frame
		}
		data[off] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, quietOpt(nil), testLoad(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipInLast=%v: got %v, want ErrCorrupt", flipInLast, err)
		}
	}
}

// TestLogBadHeader: a log whose magic or version is wrong is foreign
// data; refuse rather than truncate it away.
func TestLogBadHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("NOTAWAL\x00plus some data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, quietOpt(nil), testLoad(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestLogEpochGap: records whose epochs are not contiguous mean a
// missing (acknowledged) record — corrupt, not replayable.
func TestLogEpochGap(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = append(buf, logMagic...)
	buf = appendLE32(buf, logVersion)
	buf = AppendRecord(buf, testRecord(1))
	buf = AppendRecord(buf, testRecord(3))
	if err := os.WriteFile(filepath.Join(dir, logName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, quietOpt(nil), testLoad(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// writeCheckpoint drives l.Checkpoint with the canonical test payload.
func writeCheckpoint(t *testing.T, l *Log, epoch uint64) {
	t.Helper()
	if err := l.Checkpoint(epoch, func(w io.Writer) error {
		_, err := io.WriteString(w, ckptPayload(epoch))
		return err
	}); err != nil {
		t.Fatalf("checkpoint at %d: %v", epoch, err)
	}
}

// dirCkpts lists the checkpoint epochs present in dir, ascending.
func dirCkpts(t *testing.T, dir string) []uint64 {
	t.Helper()
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, n := range names {
		if e, ok := parseCkptName(n); ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestCheckpointLifecycle: checkpoints truncate the log behind the
// previous checkpoint and retain exactly the two newest snapshots, so
// recovery can always fall back one.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 5)
	writeCheckpoint(t, l, 3)
	// First checkpoint: the truncation floor is still 0 (no previous
	// checkpoint), so every record stays replayable under a fallback.
	if st := l.Stats(); st.Records != 5 || st.CheckpointEpoch != 3 {
		t.Fatalf("after first checkpoint: %+v", st)
	}
	writeCheckpoint(t, l, 5)
	// Second checkpoint: floor is 3; records 1-3 leave the log, both
	// snapshots stay.
	if st := l.Stats(); st.Records != 2 || st.CheckpointEpoch != 5 {
		t.Fatalf("after second checkpoint: %+v", st)
	}
	if got := dirCkpts(t, dir); !reflect.DeepEqual(got, []uint64{3, 5}) {
		t.Fatalf("checkpoints on disk: %v, want [3 5]", got)
	}
	appendAll(t, l, 6, 8)
	writeCheckpoint(t, l, 7)
	if got := dirCkpts(t, dir); !reflect.DeepEqual(got, []uint64{5, 7}) {
		t.Fatalf("checkpoints on disk: %v, want [5 7]", got)
	}
	// Stale checkpoints are no-ops.
	writeCheckpoint(t, l, 6)
	if st := l.Stats(); st.CheckpointEpoch != 7 {
		t.Fatalf("stale checkpoint moved the epoch: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var loaded uint64
	_, rec, err := Open(dir, quietOpt(nil), testLoad(&loaded))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 7 || !rec.HasCheckpoint || rec.CheckpointEpoch != 7 {
		t.Fatalf("recovered from checkpoint %d (%+v), want 7", loaded, rec)
	}
	if len(rec.Records) != 1 || rec.Records[0].Epoch != 8 {
		t.Fatalf("replay tail %+v, want just epoch 8", rec.Records)
	}
}

// TestCheckpointFallback: an unreadable newest checkpoint is skipped
// (and removed) in favor of the older one, whose replay coverage the
// log still holds; when every checkpoint is unreadable, refuse.
func TestCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 6)
	writeCheckpoint(t, l, 4)
	writeCheckpoint(t, l, 6)
	l.Close()
	// Corrupt the newest snapshot.
	if err := os.WriteFile(filepath.Join(dir, ckptName(6)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	var loaded uint64
	_, rec, err := Open(dir, quietOpt(nil), testLoad(&loaded))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 || rec.SkippedCheckpoints != 1 {
		t.Fatalf("loaded %d (skipped %d), want 4 (skipped 1)", loaded, rec.SkippedCheckpoints)
	}
	if len(rec.Records) != 2 || rec.Records[0].Epoch != 5 {
		t.Fatalf("replay tail %+v, want epochs 5-6", rec.Records)
	}
	if got := dirCkpts(t, dir); !reflect.DeepEqual(got, []uint64{4}) {
		t.Fatalf("bad checkpoint not removed: %v", got)
	}

	// All checkpoints unreadable: startup must refuse, not silently serve
	// the bootstrap state minus acknowledged batches.
	if err := os.WriteFile(filepath.Join(dir, ckptName(4)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, quietOpt(nil), testLoad(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestLogStickyError: after an injected write failure, the failing and
// every subsequent Append return an error — no record can leapfrog a
// lost one — and recovery from the surviving bytes truncates the torn
// frame.
func TestLogStickyError(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	l, _, err := Open(dir, quietOpt(ffs), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 2)
	ffs.CrashAfterWriteBytes(5) // budget counts from arming: 5 bytes into the next record
	if _, err := l.Append(testRecord(3)); !errors.Is(err, ErrInjected) {
		t.Fatalf("crashing append returned %v", err)
	}
	if _, err := l.Append(testRecord(3)); err == nil {
		t.Fatal("append after sticky failure succeeded")
	}
	if l.Err() == nil {
		t.Fatal("no sticky error recorded")
	}
	l.Close()

	_, rec, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.TruncatedBytes != 5 {
		t.Fatalf("recovered %d records, truncated %d bytes; want 2 and 5", len(rec.Records), rec.TruncatedBytes)
	}
}

// crashScenario is one fault-injection schedule for the recovery matrix.
type crashScenario struct {
	name string
	arm  func(*FaultFS)
}

func crashScenarios() []crashScenario {
	out := []crashScenario{
		{"sync-err-first", func(f *FaultFS) { f.CrashOnSync(1) }}, // sync 0 is the header's
		{"sync-err-later", func(f *FaultFS) { f.CrashOnSync(4) }},
		{"rename-before", func(f *FaultFS) { f.CrashBeforeRename(0) }},
		{"rename-after", func(f *FaultFS) { f.CrashAfterRename(0) }},
	}
	// Budgets chosen to land in the header, the first record, mid-stream,
	// near the tail, and inside a truncation rewrite (the whole workload
	// writes ~460 bytes).
	for _, budget := range []int64{12, 40, 120, 250, 420} {
		b := budget
		out = append(out, crashScenario{
			fmt.Sprintf("short-write-%d", b),
			func(f *FaultFS) { f.CrashAfterWriteBytes(b) },
		})
	}
	return out
}

// TestCrashRecoveryMatrix kills a checkpointing append workload at every
// injection point and proves the durability contract from the surviving
// bytes: every acknowledged epoch is recovered, the replay tail is
// contiguous, and the recovered records are exactly the workload's.
func TestCrashRecoveryMatrix(t *testing.T) {
	for _, sc := range crashScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(nil)
			sc.arm(ffs)

			var acked []uint64
			func() { // the doomed process
				l, rec, err := Open(dir, quietOpt(ffs), testLoad(nil))
				if err != nil {
					return // died during open: nothing acknowledged
				}
				if len(rec.Records) != 0 || rec.HasCheckpoint {
					t.Fatalf("fresh dir recovered %+v", rec)
				}
				for e := uint64(1); e <= 12; e++ {
					commit, err := l.Append(testRecord(e))
					if err != nil {
						return
					}
					if commit() != nil {
						return
					}
					acked = append(acked, e)
					if e%4 == 0 {
						// A checkpoint failure is not fatal to the workload —
						// the log still covers everything — so keep going
						// unless the log itself went sticky.
						_ = l.Checkpoint(e, func(w io.Writer) error {
							_, werr := io.WriteString(w, ckptPayload(e))
							return werr
						})
						if l.Err() != nil {
							return
						}
					}
				}
			}()
			if !ffs.Crashed() {
				t.Fatalf("workload finished without hitting the %s fault", sc.name)
			}

			// Restart on the surviving bytes with a healthy filesystem.
			var loaded uint64
			l2, rec, err := Open(dir, quietOpt(nil), testLoad(&loaded))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer l2.Close()
			state := loaded
			for i, r := range rec.Records {
				if r.Epoch != loaded+uint64(i)+1 {
					t.Fatalf("replay tail not contiguous from %d: %+v", loaded, rec.Records)
				}
				if want := testRecord(r.Epoch); !reflect.DeepEqual(r, want) {
					t.Fatalf("recovered record %+v, want %+v", r, want)
				}
				state = r.Epoch
			}
			for _, e := range acked {
				if e > state {
					t.Fatalf("acknowledged epoch %d lost: recovered only to %d (checkpoint %d, %d replayed)",
						e, state, loaded, len(rec.Records))
				}
			}
			// And the recovered log keeps working.
			commit, err := l2.Append(testRecord(state + 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenSweepsTempFiles: leftover temp files from in-flight writes are
// removed on open, never mistaken for state.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{ckptName(9) + tmpSuffix, logName + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, rec, err := Open(dir, quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.HasCheckpoint || len(rec.Records) != 0 {
		t.Fatalf("temp files leaked into recovery: %+v", rec)
	}
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			t.Fatalf("temp file %s survived open", n)
		}
	}
}

// TestLogClosedAppend: a closed log refuses appends with ErrClosed.
func TestLogClosedAppend(t *testing.T) {
	l, _, err := Open(t.TempDir(), quietOpt(nil), testLoad(nil))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
}
