// Command ncserved serves notable-characteristics search over HTTP.
//
//	ncserved -dataset yago -addr :8080
//	ncserved -graph facts.kgsnap -addr :8080 -drain 15s -max-inflight 64
//	ncserved -dataset yago -wal-dir /var/lib/ncserved/wal
//	ncserved -follow http://primary:8080 -addr :8081
//
// With -wal-dir, ingest is durable: every acknowledged /v1/ingest batch
// is fsync'd to a write-ahead log before the 200 goes out (concurrent
// ingests share one fsync), compactions persist checkpoint snapshots,
// and a restart over the same directory recovers the exact acknowledged
// epoch — replaying the log tail over the newest checkpoint, truncating
// a torn final record, and refusing to start on mid-log corruption
// rather than silently losing writes.
// The -graph/-dataset flags then only seed a fresh directory (keep them
// identical across restarts). See docs/durability.md.
//
// With -follow, the process is a read replica: it bootstraps from the
// primary's /v1/repl/snapshot, applies the primary's durable record
// stream in epoch order, refuses /v1/ingest with 403, and keeps
// /healthz at 503 ready:false until replay reaches the primary's acked
// epoch. See docs/replication.md.
//
// The listener binds before the engine exists in every mode: a long WAL
// replay or snapshot download happens behind a 200 /livez and a 503
// /healthz, so orchestrators see "alive but not ready" instead of a
// connection refused.
//
// Endpoints (see docs/serving.md for bodies and curl examples):
//
//	POST /v1/search   one query; degraded 200 under deadline by default
//	POST /v1/batch    many queries, one deduplicated pass
//	POST /v1/stream   NDJSON, one line per outcome in completion order
//	POST /v1/ingest   live triple adds/deletes; publishes a new graph epoch
//	GET  /healthz     readiness: 200 serving / 503 booting, catching up,
//	                  or draining (with current/target epochs)
//	GET  /livez       liveness: 200 whenever the process can answer
//	GET  /v1/repl/stream, /v1/repl/snapshot  replication feed (-wal-dir)
//	GET  /metrics     cache layers, in-flight gauge,
//	                  graph epoch + overlay/compaction counters,
//	                  WAL/checkpoint gauges, latency histograms
//	GET  /statsz      the same series as JSON
//	     /debug/pprof with -pprof
//
// SIGTERM or SIGINT begins a graceful drain: the listener closes,
// /healthz flips to draining, in-flight requests get -drain to finish,
// and stragglers are cancelled through their request context. A second
// signal hard-kills via the default handler.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/repl"
	"repro/internal/server"
)

// checkFlags refuses the engine flags no request could serve: a negative
// -k or -walks, an -alpha outside (0, 1), or an unknown -selector.
func checkFlags(k, walks int, alpha float64, selector string) error {
	switch {
	case k < 0:
		return fmt.Errorf("-k %d is negative", k)
	case walks < 0:
		return fmt.Errorf("-walks %d is negative", walks)
	case !(alpha > 0 && alpha < 1):
		return fmt.Errorf("-alpha %v is outside (0, 1)", alpha)
	}
	switch selector {
	case notable.SelectorContextRW, notable.SelectorRandomWalk, notable.SelectorSimRank, notable.SelectorJaccard:
		return nil
	}
	return fmt.Errorf("unknown -selector %q (want contextrw | randomwalk | simrank | jaccard)", selector)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		graphPath   = flag.String("graph", "", "triple file (.tsv/.nt) or snapshot (.kgsnap) to load")
		dataset     = flag.String("dataset", "", "built-in dataset: yago | lmdb | authors | products | figure1")
		k           = flag.Int("k", 100, "default context size |C|")
		selector    = flag.String("selector", "contextrw", "default context selector: contextrw | randomwalk | simrank | jaccard")
		walks       = flag.Int("walks", 200000, "PathMining walk budget")
		alpha       = flag.Float64("alpha", 0.05, "default significance level")
		seed        = flag.Int64("seed", 1, "random seed")
		cacheShards = flag.Int("cache-shards", 8, "query-cache shards for concurrent traffic")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-drain deadline after SIGTERM")
		reqTimeout  = flag.Duration("timeout", 30*time.Second, "default per-request timeout")
		maxTimeout  = flag.Duration("max-timeout", time.Minute, "cap on client-requested timeouts")
		maxBody     = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		maxInflight = flag.Int("max-inflight", 0, "admission gate: concurrent engine requests before shedding (0 = 4x GOMAXPROCS)")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof")
		walDir      = flag.String("wal-dir", "", "write-ahead-log directory for durable ingest (empty = in-memory only)")
		follow      = flag.String("follow", "", "primary base URL to replicate from (follower mode: read-only, in-memory)")
	)
	flag.Parse()
	if err := checkFlags(*k, *walks, *alpha, *selector); err != nil {
		fmt.Fprintf(os.Stderr, "ncserved: %v\n", err)
		os.Exit(2)
	}

	if *follow != "" && *walDir != "" {
		fmt.Fprintln(os.Stderr, "ncserved: -follow and -wal-dir are mutually exclusive: a follower's durability is its primary's WAL")
		os.Exit(1)
	}
	if *follow != "" && (*graphPath != "" || *dataset != "") {
		fmt.Fprintln(os.Stderr, "ncserved: -follow ignores -graph/-dataset: the graph comes from the primary's snapshot")
		os.Exit(1)
	}

	opt := notable.Options{
		ContextSize: *k,
		Selector:    *selector,
		Walks:       *walks,
		Alpha:       *alpha,
		Seed:        *seed,
		CacheShards: *cacheShards,
	}
	srv := server.NewPending(server.Config{
		Addr:           *addr,
		DrainTimeout:   *drain,
		RequestTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		MaxInFlight:    *maxInflight,
		EnablePprof:    *pprofOn,
		ReadOnly:       *follow != "",
	})
	srv.SetReadiness(server.Readiness{Ready: false, Status: "booting"})

	// First signal drains; a second falls through to the default handler
	// (hard kill) because NotifyContext unregisters on cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Boot failures cancel the serving loop from the boot goroutine.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var durable atomic.Pointer[notable.Engine] // set only when Close matters
	var bootFailed atomic.Bool
	if *follow != "" {
		f, err := repl.NewFollower(repl.FollowerConfig{
			Primary:  *follow,
			Options:  opt,
			OnEngine: srv.SetEngine,
			OnState: func(st repl.FollowerState) {
				srv.SetReadiness(server.Readiness{Ready: st.Ready, Status: st.Status, Epoch: st.Epoch, Target: st.Target})
			},
			Logf: log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ncserved:", err)
			os.Exit(1)
		}
		// Replication lag rides the same /metrics as the request series.
		f.RegisterMetrics(srv.Metrics())
		go func() { _ = f.Run(ctx) }()
	} else {
		go func() {
			eng, err := bootEngine(*graphPath, *dataset, *seed, opt, *walDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ncserved:", err)
				bootFailed.Store(true)
				cancel()
				return
			}
			if *walDir != "" {
				durable.Store(eng)
			}
			srv.SetEngine(eng)
			srv.SetReadiness(server.Readiness{Ready: true, Epoch: eng.Epoch()})
		}()
	}

	err := srv.Run(ctx)
	if eng := durable.Load(); eng != nil {
		eng.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncserved:", err)
		os.Exit(1)
	}
	if bootFailed.Load() {
		os.Exit(1)
	}
}

// bootEngine loads the graph and builds the (possibly durable) engine —
// the potentially slow part of startup, run behind the live listener.
func bootEngine(graphPath, dataset string, seed int64, opt notable.Options, walDir string) (*notable.Engine, error) {
	g, err := loadGraph(graphPath, dataset, seed)
	if err != nil {
		return nil, err
	}
	var engine *notable.Engine
	if walDir != "" {
		var recov *notable.RecoveryInfo
		engine, recov, err = notable.NewDurableEngine(g, opt, notable.Durability{WALDir: walDir})
		if err != nil {
			return nil, err
		}
		fmt.Printf("wal: recovered to epoch %d (checkpoint epoch %d, %d record(s) replayed, %d torn-tail byte(s) truncated, %d checkpoint(s) skipped) from %s\n",
			recov.Epoch, recov.CheckpointEpoch, recov.RecordsReplayed, recov.TruncatedBytes, recov.SkippedCheckpoints, walDir)
	} else {
		engine = notable.NewEngine(g, opt)
	}
	fmt.Printf("graph: %s (epoch %d)\n", engine.Graph().Stats(), engine.Epoch())
	return engine, nil
}

// loadGraph reads the -graph file when one is given, else builds the named
// built-in dataset.
func loadGraph(path, dataset string, seed int64) (*notable.Graph, error) {
	if path != "" {
		return notable.LoadGraphFile(path)
	}
	return gen.Named(dataset, seed, 0)
}
