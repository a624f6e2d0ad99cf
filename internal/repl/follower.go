// Follower: the replica side of WAL shipping. Bootstrap from the
// primary's snapshot, then apply its durable record stream through
// ApplyTriples strictly in epoch order — asserting after every batch
// that the locally published epoch equals the epoch the primary logged,
// which under the deterministic-replay invariant means the replica's
// bits equal the primary's at that epoch. Disconnects re-stream from
// the last applied epoch with exponential backoff and jitter; a 410
// (position truncated behind a checkpoint) re-bootstraps from a fresh
// snapshot; a 409 or an epoch mismatch is divergence and parks the
// follower unready at maximum backoff. Readiness is reported through a
// callback and is sticky: a follower that once reached the primary's
// acked epoch keeps serving through brief reconnects, but resync and
// divergence drop it back to not-ready.
package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Reconnect/liveness defaults; all overridable per FollowerConfig.
const (
	defaultBackoffMin  = 200 * time.Millisecond
	defaultBackoffMax  = 15 * time.Second
	defaultIdleTimeout = 10 * time.Second // 5× the primary's heartbeat interval
)

// maxBackoffShift caps the exponential doubling (min<<shift) before the
// max clamp takes over; also the shift divergence parks at.
const maxBackoffShift = 10

// errResync: the stream position is gone from the primary's log; only a
// fresh snapshot can rejoin.
var errResync = errors.New("repl: stream position truncated, snapshot resync required")

// errDiverged: the replica's epoch history contradicts the primary's —
// a rebuilt primary, or replay that stopped being deterministic. Never
// self-heals quickly; the follower goes unready and retries slowly.
var errDiverged = errors.New("repl: replica diverged from primary")

// FollowerState is the readiness snapshot pushed to OnState after every
// transition and every applied batch. Epoch is the last applied epoch,
// Target the primary's durable epoch at the last connect — the floor
// Epoch must reach before Ready flips true.
type FollowerState struct {
	Ready  bool
	Status string // "booting", "catching-up", "ready", "resyncing", "diverged"
	Epoch  uint64
	Target uint64
}

// FollowerConfig wires a Follower to its primary.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8080").
	Primary string
	// Options configures the replica engine built from the bootstrap
	// snapshot. Should match the primary's selector/walk options — the
	// graph bits replicate regardless, but matching options keep the
	// replica answering queries the way the primary would.
	Options notable.Options
	// Client is the HTTP client for snapshot and stream requests.
	// Defaults to one with no overall timeout (streams are long-lived;
	// the idle watchdog handles dead peers).
	Client *http.Client
	// OnEngine runs once, when the bootstrap snapshot has produced the
	// replica engine — the hook a serving process uses to hand the
	// engine to its HTTP server.
	OnEngine func(*notable.Engine)
	// OnState runs after every state transition and applied batch.
	OnState func(FollowerState)
	// Logf receives progress and error lines. Defaults to a no-op.
	Logf func(format string, args ...any)
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 200ms
	// and 15s); IdleTimeout cuts a stream that delivers no bytes — not
	// even heartbeats — for this long (default 10s).
	BackoffMin  time.Duration
	BackoffMax  time.Duration
	IdleTimeout time.Duration
}

// Follower replicates one primary into an in-memory engine. Create with
// NewFollower, drive with Run; Engine/State are safe from any
// goroutine.
type Follower struct {
	cfg FollowerConfig

	eng     atomic.Pointer[notable.Engine]
	applied atomic.Uint64
	target  atomic.Uint64
	ready   atomic.Bool
	status  atomic.Pointer[string]

	// resync is only touched by Run's goroutine.
	resync bool
}

// NewFollower validates cfg and applies defaults. Run does the work.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: FollowerConfig.Primary is required")
	}
	cfg.Primary = strings.TrimRight(cfg.Primary, "/")
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = defaultBackoffMin
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = defaultBackoffMax
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	f := &Follower{cfg: cfg}
	s0 := "booting"
	f.status.Store(&s0)
	return f, nil
}

// RegisterMetrics registers the follower's replication gauges on reg —
// apply lag in epochs (how far the replica trails the primary's durable
// epoch at last connect), the applied epoch itself, and readiness as
// 0/1. ncserved passes its server registry here so the gauges ride the
// same GET /metrics as the request series. GaugeFuncs read the
// follower's atomics at scrape time; nothing is added to the apply path.
func (f *Follower) RegisterMetrics(reg *obs.Registry) {
	reg.NewGaugeFunc("nc_repl_lag_epochs",
		"Epochs the follower trails the primary's durable epoch (0 when caught up).",
		func() float64 {
			applied, target := f.applied.Load(), f.target.Load()
			if target > applied {
				return float64(target - applied)
			}
			return 0
		})
	reg.NewGaugeFunc("nc_repl_applied_epoch",
		"Last epoch the follower applied.",
		func() float64 { return float64(f.applied.Load()) })
	reg.NewGaugeFunc("nc_repl_ready",
		"Follower readiness (1 = serving, 0 = catching up, resyncing, or diverged).",
		func() float64 { return obs.Bool(f.ready.Load()) })
}

// Engine returns the replica engine, nil until the first bootstrap
// completes.
func (f *Follower) Engine() *notable.Engine { return f.eng.Load() }

// State returns the current readiness snapshot.
func (f *Follower) State() FollowerState {
	return FollowerState{
		Ready:  f.ready.Load(),
		Status: derefStatus(f.status.Load()),
		Epoch:  f.applied.Load(),
		Target: f.target.Load(),
	}
}

// Run replicates until ctx is done, reconnecting with backoff across
// every failure. It only returns ctx.Err(): a follower has no terminal
// failure, just states it retries out of at different speeds.
func (f *Follower) Run(ctx context.Context) error {
	shift := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, err := f.session(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		switch {
		case errors.Is(err, errDiverged):
			// Divergence does not clear on its own; park at max backoff so
			// the periodic snapshot retry can eventually resync us onto the
			// primary's (possibly rebuilt) history.
			f.setState(false, "diverged")
			f.resync = true
			shift = maxBackoffShift
			f.cfg.Logf("repl: follower diverged from %s: %v", f.cfg.Primary, err)
		case errors.Is(err, errResync):
			f.setState(false, "resyncing")
			f.resync = true
			f.cfg.Logf("repl: stream position truncated on %s, re-bootstrapping from snapshot", f.cfg.Primary)
		case err != nil:
			f.cfg.Logf("repl: session against %s ended: %v", f.cfg.Primary, err)
		}
		if progressed {
			shift = 0
		} else if shift < maxBackoffShift {
			shift++
		}
		d := f.backoff(shift)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

// session runs one bootstrap (when needed) plus one stream connection,
// returning whether any forward progress happened (progress resets the
// backoff).
func (f *Follower) session(ctx context.Context) (progressed bool, err error) {
	if f.eng.Load() == nil || f.resync {
		if err := f.bootstrap(ctx); err != nil {
			return false, err
		}
		f.resync = false
		progressed = true
	}
	n, err := f.streamOnce(ctx)
	return progressed || n > 0, err
}

// bootstrap fetches /v1/repl/snapshot and installs it: the replica
// engine on first run, ResetGraph on resync. A resync snapshot older
// than what we already applied is refused by ResetGraph's forward-only
// epoch check — that is divergence territory, so keep current state and
// let backoff retry until the primary's checkpoint catches up.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+"/v1/repl/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot request: %s", httpError(resp))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Repl-Epoch"), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response missing X-Repl-Epoch: %v", err)
	}
	g, err := notable.ReadSnapshot(resp.Body)
	if err != nil {
		// Includes short reads: the snapshot footer CRC makes a truncated
		// download indistinguishable from corruption, and both mean retry.
		return fmt.Errorf("repl: decoding snapshot: %w", err)
	}
	if eng := f.eng.Load(); eng != nil {
		if rerr := eng.ResetGraph(g, epoch); rerr != nil {
			return fmt.Errorf("%w: resync snapshot at epoch %d rejected: %v", errDiverged, epoch, rerr)
		}
	} else {
		eng := notable.NewReplicaEngine(g, f.cfg.Options, epoch)
		f.eng.Store(eng)
		if f.cfg.OnEngine != nil {
			f.cfg.OnEngine(eng)
		}
	}
	f.applied.Store(epoch)
	f.setState(false, "catching-up")
	f.cfg.Logf("repl: bootstrapped from %s snapshot at epoch %d", f.cfg.Primary, epoch)
	return nil
}

// streamOnce opens /v1/repl/stream from the last applied epoch and
// applies records until the connection ends. Returns the number of
// applied batches; a nil error means a clean disconnect (reconnect and
// continue from where we are).
func (f *Follower) streamOnce(ctx context.Context) (applied int, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	from := f.applied.Load()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		f.cfg.Primary+"/v1/repl/stream?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("repl: opening stream: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		drain(resp)
		return 0, errResync
	case http.StatusConflict:
		drain(resp)
		return 0, fmt.Errorf("%w: primary durable epoch behind our %d (%s)", errDiverged, from, httpError(resp))
	default:
		return 0, fmt.Errorf("repl: stream request: %s", httpError(resp))
	}
	target, err := strconv.ParseUint(resp.Header.Get("X-Repl-Epoch"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: stream response missing X-Repl-Epoch: %v", err)
	}
	f.target.Store(target)
	f.maybeReady()

	// The idle watchdog cuts the connection when not even heartbeats
	// arrive for IdleTimeout: a primary that died without closing the
	// socket, or a partition that ate the FIN.
	watchdog := time.AfterFunc(f.cfg.IdleTimeout, cancel)
	defer watchdog.Stop()
	fr := wal.NewFrameReader(&idleResetReader{r: resp.Body, timer: watchdog, d: f.cfg.IdleTimeout})
	eng := f.eng.Load()
	for {
		rec, rerr := fr.Next()
		if rerr != nil {
			// EOF and a torn trailing frame are how dropped connections
			// look; both mean reconnect from the last applied epoch. ErrTorn
			// cannot mean data loss here: frames only ship after fsync, so
			// the cut bytes re-ship intact on the next connect.
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) || errors.Is(rerr, wal.ErrTorn) {
				return applied, nil
			}
			if sctx.Err() != nil && ctx.Err() == nil {
				return applied, fmt.Errorf("repl: stream idle for %v, reconnecting", f.cfg.IdleTimeout)
			}
			return applied, fmt.Errorf("repl: reading stream: %w", rerr)
		}
		got, aerr := eng.ApplyTriples(ctx, rec.Adds, rec.Dels)
		if aerr != nil {
			return applied, fmt.Errorf("repl: applying epoch %d: %w", rec.Epoch, aerr)
		}
		if got != rec.Epoch {
			// The replay invariant broke: the same batch sequence produced a
			// different epoch here than on the primary. Serving would return
			// wrong-epoch (possibly wrong-bit) answers; stop and go unready.
			return applied, fmt.Errorf("%w: applied batch published epoch %d, primary logged %d", errDiverged, got, rec.Epoch)
		}
		applied++
		f.applied.Store(got)
		f.maybeReady()
	}
}

// maybeReady flips ready (sticky) once applied reaches the connect-time
// target, and refreshes the state callback with the new epoch either
// way.
func (f *Follower) maybeReady() {
	if !f.ready.Load() && f.applied.Load() >= f.target.Load() {
		f.setState(true, "ready")
		return
	}
	status := "catching-up"
	if f.ready.Load() {
		status = "ready"
	}
	f.setState(f.ready.Load(), status)
}

// setState records ready/status and pushes the snapshot to OnState.
func (f *Follower) setState(ready bool, status string) {
	f.ready.Store(ready)
	f.status.Store(&status)
	if f.cfg.OnState != nil {
		f.cfg.OnState(f.State())
	}
}

// backoff returns min<<shift clamped to max, jittered to 50–150% so a
// fleet of followers orphaned by the same crash does not reconnect in
// lockstep.
func (f *Follower) backoff(shift int) time.Duration {
	d := f.cfg.BackoffMin << shift
	if d > f.cfg.BackoffMax || d <= 0 {
		d = f.cfg.BackoffMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// idleResetReader re-arms the watchdog on every read: bytes (even
// heartbeat frames) prove the primary is alive.
type idleResetReader struct {
	r     io.Reader
	timer *time.Timer
	d     time.Duration
}

func (ir *idleResetReader) Read(p []byte) (int, error) {
	n, err := ir.r.Read(p)
	ir.timer.Reset(ir.d)
	return n, err
}

// httpError renders a non-200 response for error messages: status line
// plus a capped body snippet (the server's JSON error).
func httpError(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	s := strings.TrimSpace(string(b))
	if s == "" {
		return resp.Status
	}
	return resp.Status + ": " + s
}

// drain discards a small error body so the connection can be reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
}

// derefStatus guards the pre-first-store window.
func derefStatus(p *string) string {
	if p == nil {
		return "booting"
	}
	return *p
}
