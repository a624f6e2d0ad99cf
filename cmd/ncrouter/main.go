// Command ncrouter fronts a fleet of ncserved replicas with a
// failure-aware router: consistent-hash read routing on the
// canonicalized query key, active /healthz probing, per-backend circuit
// breaking, retry-on-another-replica for idempotent reads, one bounded
// hedged request for slow owners, and ingest forwarded to the primary
// only (never retried elsewhere — a write that may have landed must not
// land twice). See docs/replication.md for the topology this serves.
//
//	ncrouter -backend primary=http://10.0.0.1:8080 \
//	         -backend r1=http://10.0.0.2:8080 \
//	         -backend r2=http://10.0.0.3:8080 \
//	         -primary primary -addr :8000
//
// Endpoints: the serving read API (/v1/search, /v1/batch, /v1/stream)
// and /v1/ingest proxied across the fleet, plus the router's own
// /healthz (200 while ≥1 backend is routable), and /metrics and /statsz
// (per-backend health, breaker, epoch, served counts and try latency, as
// Prometheus text and as JSON).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/repl"
)

// backendFlags collects repeated -backend name=url flags.
type backendFlags []repl.Backend

func (b *backendFlags) String() string { return fmt.Sprintf("%v", []repl.Backend(*b)) }

func (b *backendFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*b = append(*b, repl.Backend{Name: name, URL: url})
	return nil
}

func main() {
	var backends backendFlags
	var (
		addr       = flag.String("addr", ":8000", "listen address")
		primary    = flag.String("primary", "", "backend name that takes /v1/ingest (empty = read-only fleet)")
		probeEvery = flag.Duration("probe-interval", time.Second, "health-probe period")
		failWindow = flag.Int("fail-window", 3, "consecutive failed probes before a backend is down")
		tryTimeout = flag.Duration("try-timeout", 5*time.Second, "per-attempt timeout for proxied reads")
		hedgeAfter = flag.Duration("hedge-after", 150*time.Millisecond, "delay before one hedged /v1/search fires (negative = off)")
		vnodes     = flag.Int("vnodes", repl.DefaultVirtualNodes, "virtual nodes per backend on the hash ring")
	)
	flag.Var(&backends, "backend", "replica as name=url (repeatable)")
	flag.Parse()

	rt, err := repl.NewRouter(repl.RouterConfig{
		Backends:      backends,
		Primary:       *primary,
		ProbeInterval: *probeEvery,
		FailWindow:    *failWindow,
		TryTimeout:    *tryTimeout,
		HedgeAfter:    *hedgeAfter,
		VNodes:        *vnodes,
		Logf:          log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncrouter:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("ncrouter: serving %d backend(s) on %s (primary=%q)", len(backends), *addr, *primary)
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ncrouter:", err)
			os.Exit(1)
		}
	}
}
