package notable

// Durable-ingest tests: NewDurableEngine end to end — restart recovery
// bitwise-identical to a from-scratch engine, checkpoint/truncate
// lifecycle through Checkpoint and compaction, the fault-injection crash
// matrix over the wal.FS seam, sticky ErrDurability, and the torn-tail
// vs. mid-log-corruption distinction.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wal"
)

func durOpt() Options {
	return Options{ContextSize: 6, Walks: 5000, Seed: 3}
}

func quietDur(dir string) Durability {
	return Durability{WALDir: dir, Logf: func(string, ...any) {}}
}

// durableBatch is the i-th deterministic mutation of the crash workload;
// every batch is effective, so batch i+1 always lands on epoch i+1.
func durableBatch(i int) (adds, dels []Triple) {
	adds = []Triple{
		{S: "Angela Merkel", P: "visited", O: countryName(i)},
		{S: "Barack Obama", P: "visited", O: countryName(i)},
	}
	if i%2 == 1 {
		dels = []Triple{{S: "Angela Merkel", P: "visited", O: countryName(i - 1)}}
	}
	return adds, dels
}

// applyBatches applies the first n workload batches, asserting the epoch
// sequence.
func applyBatches(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		adds, dels := durableBatch(i)
		ep, err := e.ApplyTriples(context.Background(), adds, dels)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if ep != uint64(i+1) {
			t.Fatalf("batch %d landed on epoch %d", i, ep)
		}
	}
	// The durable tests pin checkpoint and replay counts that only an
	// explicit Checkpoint or Compact may move; their few small batches
	// stay far below kg.DefaultCompactThreshold.
	if st := e.VersionStats(); st.Rebuilds != 0 {
		t.Fatalf("store compacted on its own: %+v", st)
	}
}

// oracleResult is the from-scratch answer at epoch n: a fresh engine
// over a full rebuild of the graph after the first n workload batches.
func oracleResult(t *testing.T, opt Options, n uint64) Result {
	t.Helper()
	e := NewEngine(buildLeaders(), opt)
	applyBatches(t, e, int(n))
	ref := referenceEngine(e, opt)
	q, err := ref.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	return mustDo(t, ref, Query{Nodes: q})
}

func durableDo(t *testing.T, e *Engine) Result {
	t.Helper()
	q, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	return mustDo(t, e, Query{Nodes: q})
}

func TestDurableEngineConfigErrors(t *testing.T) {
	if _, _, err := NewDurableEngine(buildLeaders(), durOpt(), Durability{}); err == nil {
		t.Fatal("empty WALDir accepted")
	}
	d := quietDur(t.TempDir())
	d.Sync = "always"
	if _, _, err := NewDurableEngine(buildLeaders(), durOpt(), d); err == nil {
		t.Fatal("unknown sync policy accepted")
	}
	// A non-durable engine reports durability off and no-ops Checkpoint
	// and Close.
	e := NewEngine(buildLeaders(), durOpt())
	if ds := e.DurabilityStats(); ds.Enabled {
		t.Fatalf("non-durable engine reports %+v", ds)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRestartMatchesFromScratch: a restart over the WAL directory
// recovers the acknowledged epoch, and its search results are bitwise
// identical to a from-scratch engine — under both sync policies.
func TestDurableRestartMatchesFromScratch(t *testing.T) {
	for _, sync := range []string{SyncBatch, SyncInterval} {
		t.Run(sync, func(t *testing.T) {
			dir := t.TempDir()
			opt := durOpt()
			d := quietDur(dir)
			d.Sync = sync
			e, info, err := NewDurableEngine(buildLeaders(), opt, d)
			if err != nil {
				t.Fatal(err)
			}
			if info.Epoch != 0 || info.HasCheckpoint || info.RecordsReplayed != 0 {
				t.Fatalf("fresh directory recovered %+v", info)
			}
			applyBatches(t, e, 3)
			want := durableDo(t, e)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			// Serving survives Close; ingest does not.
			if got := durableDo(t, e); !reflect.DeepEqual(got, want) {
				t.Fatal("reads differ after Close")
			}
			if _, err := e.ApplyTriples(context.Background(), []Triple{{S: "a", P: "b", O: "c"}}, nil); !errors.Is(err, ErrDurability) {
				t.Fatalf("ingest after Close: %v, want ErrDurability", err)
			}

			e2, info2, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if info2.Epoch != 3 || info2.RecordsReplayed != 3 || info2.HasCheckpoint {
				t.Fatalf("restart recovered %+v", info2)
			}
			if e2.Epoch() != 3 {
				t.Fatalf("engine epoch %d after recovery", e2.Epoch())
			}
			got := durableDo(t, e2)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("recovered result differs from the pre-restart engine")
			}
			if oracle := oracleResult(t, opt, 3); !reflect.DeepEqual(got, oracle) {
				t.Fatal("recovered result differs from a from-scratch engine")
			}
			if ds := e2.DurabilityStats(); !ds.Enabled || ds.RecoveredRecords != 3 {
				t.Fatalf("stats after recovery: %+v", ds)
			}
			// Ingest resumes on the recovered epoch sequence.
			adds, dels := durableBatch(3)
			if ep, err := e2.ApplyTriples(context.Background(), adds, dels); err != nil || ep != 4 {
				t.Fatalf("post-recovery batch: epoch %d, err %v", ep, err)
			}
		})
	}
}

// TestDurableCheckpointLifecycle: explicit checkpoints persist the flat
// graph, truncate the log behind the previous checkpoint, and make the
// next restart a snapshot load instead of a replay.
func TestDurableCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt()
	e, _, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, e, 2)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// First checkpoint: floor 0, nothing truncated yet.
	if ds := e.DurabilityStats(); ds.CheckpointEpoch != 2 || ds.WALRecords != 2 {
		t.Fatalf("after first checkpoint: %+v", ds)
	}
	applyBatches2(t, e, 2, 4)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint: records at or below the previous one (epoch 2)
	// leave the log.
	if ds := e.DurabilityStats(); ds.CheckpointEpoch != 4 || ds.WALRecords != 2 {
		t.Fatalf("after second checkpoint: %+v", ds)
	}
	want := durableDo(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, info, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !info.HasCheckpoint || info.CheckpointEpoch != 4 || info.RecordsReplayed != 0 || info.Epoch != 4 {
		t.Fatalf("restart after checkpoint recovered %+v", info)
	}
	if got := durableDo(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatal("checkpoint-recovered result differs from the pre-restart engine")
	}
	if oracle := oracleResult(t, opt, 4); !reflect.DeepEqual(durableDo(t, e2), oracle) {
		t.Fatal("checkpoint-recovered result differs from a from-scratch engine")
	}
}

// applyBatches2 applies workload batches [from, to).
func applyBatches2(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		adds, dels := durableBatch(i)
		if _, err := e.ApplyTriples(context.Background(), adds, dels); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

// TestDurableCompactionCheckpoints: a compaction swap persists a
// checkpoint through the OnCompact hook, without an explicit Checkpoint
// call. (Compact is the synchronous path to the same hook background
// threshold compaction fires; a background rebuild can lose its publish
// race and be discarded, so it cannot be asserted deterministically.)
func TestDurableCompactionCheckpoints(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt()
	e, _, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, e, 4)
	e.vg.Compact()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasCheckpoint {
		t.Fatalf("no checkpoint after threshold compaction: %+v", info)
	}
	if info.Epoch != 4 {
		t.Fatalf("recovered epoch %d, want 4", info.Epoch)
	}
}

// TestDurableNoopBatchNotLogged: an ineffective batch does not bump the
// epoch, so it must not reach the log either — logged epochs stay
// contiguous.
func TestDurableNoopBatchNotLogged(t *testing.T) {
	e, _, err := NewDurableEngine(buildLeaders(), durOpt(), quietDur(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	applyBatches(t, e, 1)
	adds, _ := durableBatch(0) // identical again: a no-op
	if ep, err := e.ApplyTriples(context.Background(), adds, nil); err != nil || ep != 1 {
		t.Fatalf("no-op batch: epoch %d, err %v", ep, err)
	}
	if ds := e.DurabilityStats(); ds.WALRecords != 1 {
		t.Fatalf("no-op batch was logged: %+v", ds)
	}
}

// TestDurableStickyError: once the log fails, the failing ApplyTriples
// and every later one return ErrDurability — no batch is acknowledged
// past a lost one — while reads keep serving; a restart recovers the
// last epoch durable before the fault.
func TestDurableStickyError(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt()
	ffs := wal.NewFaultFS(nil)
	d := quietDur(dir)
	d.fs = ffs
	e, _, err := NewDurableEngine(buildLeaders(), opt, d)
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, e, 1)
	ffs.CrashAfterWriteBytes(3) // the next record tears 3 bytes in
	adds, dels := durableBatch(1)
	if _, err := e.ApplyTriples(context.Background(), adds, dels); !errors.Is(err, ErrDurability) {
		t.Fatalf("crashing batch: %v, want ErrDurability", err)
	}
	adds, dels = durableBatch(2)
	if _, err := e.ApplyTriples(context.Background(), adds, dels); !errors.Is(err, ErrDurability) {
		t.Fatalf("batch after sticky failure: %v, want ErrDurability", err)
	}
	durableDo(t, e) // reads unaffected
	e.Close()

	e2, info, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if info.Epoch != 1 || info.TruncatedBytes != 3 {
		t.Fatalf("recovered %+v, want epoch 1 with 3 torn bytes", info)
	}
	if oracle := oracleResult(t, opt, 1); !reflect.DeepEqual(durableDo(t, e2), oracle) {
		t.Fatal("recovered result differs from a from-scratch engine at epoch 1")
	}
}

// TestDurableCrashRecoveryMatrix kills the ingest pipeline at every
// fault-injection point — short writes at several depths, fsync
// failures, a crash on either side of the checkpoint rename — and
// asserts the durability contract: a clean restart recovers every
// acknowledged epoch, and its search results are bitwise identical to a
// from-scratch engine at the recovered epoch.
func TestDurableCrashRecoveryMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		arm  func(*wal.FaultFS)
	}{
		{"write-header", func(f *wal.FaultFS) { f.CrashAfterWriteBytes(6) }},
		{"write-first-record", func(f *wal.FaultFS) { f.CrashAfterWriteBytes(30) }},
		{"write-mid", func(f *wal.FaultFS) { f.CrashAfterWriteBytes(200) }},
		{"write-late", func(f *wal.FaultFS) { f.CrashAfterWriteBytes(450) }},
		{"sync-open", func(f *wal.FaultFS) { f.CrashOnSync(0) }},
		{"sync-early", func(f *wal.FaultFS) { f.CrashOnSync(2) }},
		{"sync-late", func(f *wal.FaultFS) { f.CrashOnSync(6) }},
		{"ckpt-rename-before", func(f *wal.FaultFS) { f.CrashBeforeRename(0) }},
		{"ckpt-rename-after", func(f *wal.FaultFS) { f.CrashAfterRename(0) }},
	}
	opt := durOpt()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(nil)
			sc.arm(ffs)

			var acked uint64
			func() { // the doomed process
				d := quietDur(dir)
				d.fs = ffs
				e, _, err := NewDurableEngine(buildLeaders(), opt, d)
				if err != nil {
					return // died during open: nothing acknowledged
				}
				defer e.Close()
				for i := 0; i < 6; i++ {
					adds, dels := durableBatch(i)
					ep, err := e.ApplyTriples(context.Background(), adds, dels)
					if err != nil {
						return
					}
					acked = ep
					if i == 2 {
						// The first checkpoint: where the rename crash points
						// live. A failed checkpoint is survivable (the log
						// still covers everything), so keep ingesting.
						_ = e.Checkpoint()
					}
				}
			}()
			if !ffs.Crashed() {
				t.Fatalf("workload finished without hitting the %s fault", sc.name)
			}

			e2, info, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer e2.Close()
			if info.Epoch < acked {
				t.Fatalf("acknowledged epoch %d lost: recovered only %+v", acked, info)
			}
			if got, oracle := durableDo(t, e2), oracleResult(t, opt, info.Epoch); !reflect.DeepEqual(got, oracle) {
				t.Fatalf("recovered result at epoch %d differs from a from-scratch engine", info.Epoch)
			}
		})
	}
}

// TestDurableTornTail: a log ending mid-frame (the bytes a real crash
// leaves) is truncated to the last complete record and recovery proceeds
// one epoch short — exactly the unacknowledged batch.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt()
	e, _, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, e, 3)
	e.Close()
	path := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	e2, info, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if info.TruncatedBytes == 0 || info.Epoch != 2 {
		t.Fatalf("recovered %+v, want epoch 2 with torn bytes reported", info)
	}
	if oracle := oracleResult(t, opt, 2); !reflect.DeepEqual(durableDo(t, e2), oracle) {
		t.Fatal("recovered result differs from a from-scratch engine at epoch 2")
	}
}

// TestDurableMidLogCorruption: a checksum failure before the final
// record means acknowledged batches are unrecoverable; construction must
// refuse with wal.ErrCorrupt, not serve a graph missing writes.
func TestDurableMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt()
	e, _, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, e, 3)
	e.Close()
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x08 // inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewDurableEngine(buildLeaders(), opt, quietDur(dir)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-log corruption: %v, want wal.ErrCorrupt", err)
	}
}

// BenchmarkIngestDurable prices the durability tax on ApplyTriples: no
// WAL, per-batch fsync, and interval group commit. Each iteration is an
// effective single-triple batch (alternating add/delete of the same
// edge, so the overlay stays bounded without compaction noise).
func BenchmarkIngestDurable(b *testing.B) {
	run := func(b *testing.B, sync string) {
		opt := durOpt()
		var e *Engine
		if sync == "" {
			e = NewEngine(buildLeaders(), opt)
		} else {
			var err error
			e, _, err = NewDurableEngine(buildLeaders(), opt, Durability{
				WALDir: b.TempDir(), Sync: sync, Logf: func(string, ...any) {},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
		}
		ctx := context.Background()
		tr := []Triple{{S: "Angela Merkel", P: "visited", O: "Wonderland"}}
		// Intern the new node up front so no iteration pays the one-off
		// search-index rebuild.
		if _, err := e.ApplyTriples(ctx, tr, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if i%2 == 0 {
				_, err = e.ApplyTriples(ctx, nil, tr)
			} else {
				_, err = e.ApplyTriples(ctx, tr, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, "") })
	b.Run("batch", func(b *testing.B) { run(b, SyncBatch) })
	b.Run("interval", func(b *testing.B) { run(b, SyncInterval) })
}
