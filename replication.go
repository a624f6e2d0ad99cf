// Replication: the engine-level seam between a durable primary and its
// read replicas. A primary exports its WAL — the log tail as a byte
// stream of framed records (ReplTail/ReplChanged) and the newest
// checkpoint as a bootstrap snapshot (ReplSnapshot) — and a follower
// (internal/repl.Follower) rebuilds an identical engine by loading the
// snapshot into NewReplicaEngine and applying the streamed records
// through ApplyTriples in epoch order. Because ApplyTriples at a given
// epoch sequence is deterministic down to the bits (the PR 7
// invariant), a replica at epoch N answers every query exactly as the
// primary did at epoch N.
package notable

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/search"
	"repro/internal/wal"
)

// ErrNotDurable is returned by replication exports on an engine without
// a write-ahead log: there is no durable record stream to ship.
var ErrNotDurable = errors.New("notable: engine has no write-ahead log to replicate")

// ErrEpochTruncated is returned by ReplTail when the requested stream
// position has been truncated behind a checkpoint: the follower cannot
// resume incrementally and must re-bootstrap from ReplSnapshot.
var ErrEpochTruncated = errors.New("notable: epoch truncated from replication log")

// NewReplicaEngine prepares an engine seeded from a primary's snapshot
// at a known epoch — the follower-side constructor. It is NewEngine
// with an explicit starting epoch: applied triples live only in memory
// (a replica's durability is the primary's WAL), and replaying the
// primary's record stream from epoch+1 republishes the primary's exact
// epoch sequence, bit for bit.
func NewReplicaEngine(g *Graph, opt Options, epoch uint64) *Engine {
	return newEngine(g, opt, epoch, newEngineMetrics())
}

// DurableEpoch returns the newest epoch whose batch is guaranteed to
// survive a primary crash — the watermark replication streams ship up
// to. ErrNotDurable on an engine without a WAL.
func (e *Engine) DurableEpoch() (uint64, error) {
	l := e.wal.Load()
	if l == nil {
		return 0, ErrNotDurable
	}
	return l.DurableEpoch(), nil
}

// ReplTail returns the raw framed WAL bytes of every durable record
// with epoch in (from, durable], plus the durable epoch itself — one
// chunk of a replication stream, decodable with wal.NewFrameReader. An
// empty tail with durable == from means the follower is caught up; a
// truncated position returns an error wrapping ErrEpochTruncated and
// the follower must re-bootstrap from ReplSnapshot.
func (e *Engine) ReplTail(from uint64) ([]byte, uint64, error) {
	l := e.wal.Load()
	if l == nil {
		return nil, 0, ErrNotDurable
	}
	tail, durable, err := l.TailSince(from)
	if errors.Is(err, wal.ErrGone) {
		return nil, durable, fmt.Errorf("%w: %v", ErrEpochTruncated, err)
	}
	return tail, durable, err
}

// ReplChanged returns a channel closed the next time the durable epoch
// advances (or the log fails or closes) — what a live stream handler
// blocks on between ReplTail calls. Re-call after each wakeup.
func (e *Engine) ReplChanged() (<-chan struct{}, error) {
	l := e.wal.Load()
	if l == nil {
		return nil, ErrNotDurable
	}
	return l.Changed(), nil
}

// ReplSnapshot opens the bootstrap payload for a late-joining follower:
// the newest durable checkpoint when one exists (zero-copy off disk),
// otherwise a snapshot of the current view serialized on the spot. The
// returned epoch is the snapshot's; a follower streams records from
// exactly there. The caller closes rc.
//
// Both sources compose with ReplTail: the log retains every record past
// the previous checkpoint (≤ the served checkpoint's epoch), and a
// materialized view is at least as new as every durable record, so the
// stream that follows either snapshot has no gap to cross.
func (e *Engine) ReplSnapshot() (epoch uint64, rc io.ReadCloser, err error) {
	l := e.wal.Load()
	if l == nil {
		return 0, nil, ErrNotDurable
	}
	if epoch, rc, ok, err := l.OpenCheckpoint(); err != nil {
		return 0, nil, err
	} else if ok {
		return epoch, rc, nil
	}
	view := e.vg.View()
	var buf bytes.Buffer
	if err := view.G.WriteSnapshot(&buf); err != nil {
		return 0, nil, fmt.Errorf("notable: serializing view for replication: %w", err)
	}
	return view.Epoch, io.NopCloser(&buf), nil
}

// ResetGraph discards the replica's state and republishes g as a fresh
// view at epoch — the follower's full-resync path after its stream
// position was truncated away on the primary. Refused on a durable
// engine: a WAL-backed engine's history is its log, and rewriting the
// live graph underneath it would desynchronize the two. The epoch may
// only move forward (requests that pinned older views finish on them,
// as always). This is the one publish that builds a fresh name index —
// nothing says the new graph extends the old one — and like every
// publish it drops the epoch-keyed cache layers.
func (e *Engine) ResetGraph(g *Graph, epoch uint64) error {
	if e.wal.Load() != nil {
		return fmt.Errorf("%w: refusing to reset a durable engine's graph", ErrDurability)
	}
	if _, err := e.vg.Reset(g, epoch); err != nil {
		return err
	}
	e.idx.Store(search.NewIndex(g))
	e.selMemo.Store(nil)
	e.purgeEpochKeyed()
	return nil
}
