// Durable ingest: the facade over internal/wal that makes an Engine's
// acknowledged ApplyTriples batches survive process death. See
// docs/durability.md for the log format, the fsync policy, and the
// recovery semantics; the mechanics live in internal/wal.
package notable

import (
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/kg"
	"repro/internal/wal"
)

// SyncBatch names the one fsync policy: the log is fsync'd inside every
// ApplyTriples call whose batch no earlier fsync or checkpoint already
// covered. It and Durability.Sync remain only because the benchmark
// harness sets them.
const SyncBatch = "batch"

// Durability configures a durable engine's write-ahead log.
type Durability struct {
	// WALDir is the directory holding the log and its checkpoints.
	// Required; created if absent. One engine per directory.
	WALDir string
	// Sync is "" or SyncBatch; anything else is refused. Kept for the
	// benchmark harness, which sets it.
	Sync string
	// Logf receives recovery, checkpoint, and checkpoint-failure lines
	// (default log.Printf).
	Logf func(format string, args ...any)

	// fs overrides the filesystem seam — the fault-injection hook for
	// this package's crash tests. Production always leaves it nil.
	fs wal.FS
}

// RecoveryInfo reports what NewDurableEngine reconstructed at boot.
type RecoveryInfo struct {
	// HasCheckpoint reports whether a checkpoint snapshot was restored;
	// CheckpointEpoch is its epoch (0 without one: the engine started
	// from the bootstrap graph).
	HasCheckpoint   bool
	CheckpointEpoch uint64
	// RecordsReplayed counts the WAL records re-applied over the
	// checkpoint (or bootstrap) state.
	RecordsReplayed int
	// TruncatedBytes counts torn-tail bytes dropped from the log — the
	// residue of a crash mid-append, never an acknowledged batch.
	TruncatedBytes int64
	// SkippedCheckpoints counts unreadable checkpoint files discarded in
	// favor of an older one.
	SkippedCheckpoints int
	// Epoch is the graph epoch current after recovery.
	Epoch uint64
}

// DurabilityStats is a point-in-time summary of a durable engine's WAL
// for observability endpoints; the zero value (Enabled false) is what a
// non-durable engine reports.
type DurabilityStats struct {
	Enabled bool
	// WALBytes and WALRecords describe the current log file.
	WALBytes   int64
	WALRecords int64
	// LastFsync is the duration of the most recent log fsync — the
	// disk-health signal behind nc_wal_last_fsync_seconds.
	LastFsync time.Duration
	// CheckpointEpoch is the newest durable checkpoint's epoch.
	CheckpointEpoch uint64
	// RecoveredRecords is the boot-time replay count (constant after
	// construction).
	RecoveredRecords int
	// SkippedCheckpoints is the number of unreadable checkpoint files boot
	// recovery discarded in favor of an older one (constant after
	// construction). Non-zero means the durability directory is limping —
	// a signal health probes should see, not just a log line.
	SkippedCheckpoints int
}

// NewDurableEngine prepares an engine whose acknowledged ApplyTriples
// batches survive process death, backed by a write-ahead log in
// d.WALDir. On a fresh directory the engine starts from bootstrap at
// epoch 0, exactly like NewEngine, and logs every effective batch from
// then on. On an existing directory it recovers: the newest valid
// checkpoint snapshot replaces bootstrap (restarting at the checkpoint's
// epoch), the log tail past it is replayed batch by batch — republishing
// the exact epoch sequence the original process acknowledged — and the
// returned RecoveryInfo summarizes what happened. bootstrap must be the
// same graph across restarts (recovery without a checkpoint replays the
// log over it; a different graph diverges from what was acknowledged).
//
// A torn final record (a crash mid-append) is truncated and reported; it
// was never acknowledged. Anything worse — a mid-log checksum failure,
// an epoch gap, every checkpoint unreadable — refuses construction with
// an error wrapping wal.ErrCorrupt rather than serving a graph that
// silently lost acknowledged writes.
//
// Checkpoints ride compaction: whenever the store folds its overlay into
// a flat base (past kg.DefaultCompactThreshold changes), the flat
// graph is also written as a checkpoint snapshot and the log truncated
// behind it, bounding both recovery time and disk growth. Call Close on
// shutdown to flush and release the log.
func NewDurableEngine(bootstrap *Graph, opt Options, d Durability) (*Engine, *RecoveryInfo, error) {
	if d.WALDir == "" {
		return nil, nil, fmt.Errorf("notable: durability requires a WALDir")
	}
	if d.Logf == nil {
		d.Logf = log.Printf
	}
	if d.Sync != "" && d.Sync != SyncBatch {
		return nil, nil, fmt.Errorf("notable: unknown sync policy %q (want %q)", d.Sync, SyncBatch)
	}

	g := bootstrap
	met := newEngineMetrics()
	l, recov, err := wal.Open(d.WALDir, wal.Options{
		FS:       d.fs,
		Logf:     d.Logf,
		FsyncObs: met.fsync,
	}, func(epoch uint64, payload io.Reader) error {
		cg, err := kg.ReadSnapshot(payload)
		if err != nil {
			return err
		}
		g = cg
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	e := newEngine(g, opt, recov.CheckpointEpoch, met)
	e.walLogf = d.Logf
	// Replay before arming the log: these batches are already in it, and
	// re-applying them must republish the exact epochs they carried. A
	// mismatch means the durable state does not reproduce what was
	// acknowledged — corruption, not a condition to paper over.
	for _, rec := range recov.Records {
		view, aerr := e.vg.Apply(rec.Adds, rec.Dels)
		if aerr == nil && view.Epoch != rec.Epoch {
			aerr = fmt.Errorf("batch landed on epoch %d", view.Epoch)
		}
		if aerr != nil {
			l.Close()
			return nil, nil, fmt.Errorf("%w: replaying record at epoch %d: %v", wal.ErrCorrupt, rec.Epoch, aerr)
		}
	}
	e.idx.Load().Extend(e.vg.View().G)
	e.recovered = len(recov.Records)
	e.skippedCkpts = recov.SkippedCheckpoints
	e.wal.Store(l)

	info := &RecoveryInfo{
		HasCheckpoint:      recov.HasCheckpoint,
		CheckpointEpoch:    recov.CheckpointEpoch,
		RecordsReplayed:    len(recov.Records),
		TruncatedBytes:     recov.TruncatedBytes,
		SkippedCheckpoints: recov.SkippedCheckpoints,
		Epoch:              e.vg.View().Epoch,
	}
	return e, info, nil
}

// checkpointView is the store's OnCompact hook: a compaction just
// produced a flat graph at a known epoch, which is exactly a checkpoint
// payload. No-op on non-durable engines and during recovery replay (the
// log is armed only afterwards).
func (e *Engine) checkpointView(view *kg.View) {
	l := e.wal.Load()
	if l == nil {
		return
	}
	if err := l.Checkpoint(view.Epoch, view.G.WriteSnapshot); err != nil {
		// The log keeps every record a missing checkpoint would need, so
		// durability holds; recovery just replays more. Worth a loud line.
		e.walLogf("notable: checkpoint at epoch %d failed: %v", view.Epoch, err)
	}
}

// Checkpoint synchronously compacts the live graph and persists it as a
// checkpoint snapshot, truncating the log behind it. Normally
// checkpoints ride background compaction; an explicit call bounds
// recovery time before a planned restart. No-op on non-durable engines.
func (e *Engine) Checkpoint() error {
	l := e.wal.Load()
	if l == nil {
		return nil
	}
	view := e.vg.Compact() // fires checkpointView via OnCompact
	if view.Epoch == 0 {
		return nil // nothing applied yet: bootstrap reproduces epoch 0
	}
	// Cover the already-flat case (Compact found no overlay, so OnCompact
	// did not fire); a checkpoint this epoch already has is a no-op.
	return l.Checkpoint(view.Epoch, view.G.WriteSnapshot)
}

// DurabilityStats summarizes the engine's write-ahead log; Enabled is
// false (and everything else zero) on a non-durable engine.
func (e *Engine) DurabilityStats() DurabilityStats {
	l := e.wal.Load()
	if l == nil {
		return DurabilityStats{}
	}
	st := l.Stats()
	return DurabilityStats{
		Enabled:            true,
		WALBytes:           st.Bytes,
		WALRecords:         st.Records,
		LastFsync:          st.LastFsync,
		CheckpointEpoch:    st.CheckpointEpoch,
		RecoveredRecords:   e.recovered,
		SkippedCheckpoints: e.skippedCkpts,
	}
}

// Close waits for any in-flight background compaction, purges the query
// cache — which unmaps the cached seed vectors at once instead of at some
// later collection — then flushes and closes the engine's write-ahead
// log. Idempotent. The engine keeps serving reads after Close, but
// further ApplyTriples calls fail on a durable engine (the durability
// contract can no longer be honored).
func (e *Engine) Close() error {
	e.vg.WaitCompaction()
	e.purgeEpochKeyed()
	if l := e.wal.Load(); l != nil {
		return l.Close()
	}
	return nil
}
