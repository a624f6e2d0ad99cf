// ncsoak: a sustained-load soak driver for ncserved. It plays a mixed
// workload — warm repeats, cold cache-missing searches, refined
// variants, batches, NDJSON streams, and (against a primary) live
// ingest — at a target request rate for a fixed duration, sampling the
// server's /metrics as it goes, and exits nonzero when the run shows a
// leak or drift: goroutines that do not return to their post-warmup
// baseline, RSS growth past a budget, request errors past a budget, or
// request counters on /metrics failing to parse or to increase.
//
//	ncsoak -addr http://127.0.0.1:8080 -duration 60s -qps 15
//
// The workload keys its queries off the same Table 1 entity names the
// built-in datasets plant (-domain picks which), so a server booted
// with -dataset yago answers every warm query from a real entity set.
// Cold traffic salts the walk budget (a cache-key component) with the
// request index, so every cold search is a genuine miss.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "ncserved base URL")
		duration  = flag.Duration("duration", 60*time.Second, "measured soak length (after warmup)")
		warmup    = flag.Duration("warmup", 5*time.Second, "pre-measurement load to fill caches and settle the baseline")
		cooldown  = flag.Duration("cooldown", 5*time.Second, "post-load settle time before the leak check samples")
		qps       = flag.Float64("qps", 15, "target request rate")
		workers   = flag.Int("workers", 16, "max in-flight requests from the driver")
		domain    = flag.String("domain", "actors", "Table 1 query domain: actors | movies | authors | books | songs")
		ingest    = flag.Bool("ingest", true, "include live ingest in the mix (disable against read-only replicas)")
		maxGoro   = flag.Int("max-goroutine-growth", 12, "fail when final goroutines exceed the post-warmup baseline by more than this")
		maxRSSMB  = flag.Int("max-rss-growth-mb", 256, "fail when RSS grows past this over the run (0 disables; skipped when the server reports no RSS)")
		maxErrPct = flag.Float64("max-err-pct", 1.0, "fail when more than this percent of requests error")
		sample    = flag.Duration("sample", 2*time.Second, "/metrics sampling period")
	)
	flag.Parse()

	names := gen.Table1[*domain]
	if len(names) < 2 {
		fmt.Fprintf(os.Stderr, "ncsoak: unknown -domain %q\n", *domain)
		os.Exit(2)
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	s := &soak{
		base: base, client: client, names: names,
		ingest: *ingest, workers: make(chan struct{}, *workers),
		byOp: map[string]int64{}, errBy: map[string]int64{},
		lat: map[string]*obs.Histogram{},
	}
	for _, op := range opNames {
		s.lat[op] = obs.NewHistogram(nil)
	}

	if err := s.waitReady(60 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "ncsoak:", err)
		os.Exit(2)
	}

	// Warmup: same mix, nothing measured. Fills the selector/test caches
	// and lets the server's goroutine count settle where steady-state
	// serving puts it — that settled point is the leak baseline, not the
	// idle pre-traffic count.
	fmt.Printf("ncsoak: warmup %v against %s\n", *warmup, base)
	s.drive(*warmup, *qps)
	s.wait()
	baseline, err := s.scrape()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncsoak: baseline /metrics:", err)
		os.Exit(1)
	}

	// Measured phase, with a /metrics sampler running alongside.
	fmt.Printf("ncsoak: soaking %v at %.0f qps (workers=%d, ingest=%v)\n", *duration, *qps, *workers, *ingest)
	stopSample := make(chan struct{})
	var samples []map[string]float64
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		t := time.NewTicker(*sample)
		defer t.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-t.C:
				if sv, err := s.scrape(); err == nil {
					samples = append(samples, sv)
				}
			}
		}
	}()
	s.drive(*duration, *qps)
	s.wait()
	close(stopSample)
	sampleWG.Wait()

	// Cooldown, then the final samples the thresholds judge. Idle client
	// connections are closed first so keep-alive goroutines on the server
	// can actually exit.
	client.CloseIdleConnections()
	time.Sleep(*cooldown)
	final, err := s.scrape()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncsoak: final /metrics:", err)
		os.Exit(1)
	}

	s.report(baseline, final, samples)

	var failures []string
	if growth := final[goroutines] - baseline[goroutines]; growth > float64(*maxGoro) {
		failures = append(failures, fmt.Sprintf("goroutines grew %.0f over baseline %.0f (budget %d)",
			growth, baseline[goroutines], *maxGoro))
	}
	if *maxRSSMB > 0 && baseline[rss] > 0 && final[rss] > 0 {
		if growMB := int64(final[rss]-baseline[rss]) >> 20; growMB > int64(*maxRSSMB) {
			failures = append(failures, fmt.Sprintf("RSS grew %d MiB (budget %d MiB)", growMB, *maxRSSMB))
		}
	}
	total := s.done.Load()
	if errs := s.errors.Load(); total > 0 && float64(errs)*100/float64(total) > *maxErrPct {
		failures = append(failures, fmt.Sprintf("%d/%d requests errored (budget %.1f%%)", errs, total, *maxErrPct))
	}
	if before, after := requestTotal(baseline), requestTotal(final); after <= before {
		failures = append(failures, fmt.Sprintf("nc_http_requests_total did not increase (%.0f -> %.0f)", before, after))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "ncsoak: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("ncsoak: PASS")
}

// opNames fixes the reporting order of the mix.
var opNames = []string{"warm", "cold", "refine", "batch", "stream", "ingest"}

type soak struct {
	base   string
	client *http.Client
	names  []string
	ingest bool

	workers chan struct{}
	wg      sync.WaitGroup

	seq     atomic.Int64 // salts cold cache keys and ingest subjects
	done    atomic.Int64
	errors  atomic.Int64
	skipped atomic.Int64 // ticks dropped because all workers were busy

	mu    sync.Mutex
	byOp  map[string]int64
	errBy map[string]int64
	lat   map[string]*obs.Histogram
}

// drive plays the mix at the target rate for d, skipping ticks when all
// workers are busy — an overloaded server slows the offered rate rather
// than queueing unbounded requests in the driver.
func (s *soak) drive(d time.Duration, qps float64) {
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	deadline := time.Now().Add(d)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for time.Now().Before(deadline) {
		<-t.C
		op := s.pick(rng)
		select {
		case s.workers <- struct{}{}:
		default:
			s.skipped.Add(1)
			continue
		}
		seed := rng.Int63()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.workers }()
			s.one(op, rand.New(rand.NewSource(seed)))
		}()
	}
}

func (s *soak) wait() { s.wg.Wait() }

// pick weights the mix: mostly warm traffic, a steady trickle of
// everything else.
func (s *soak) pick(rng *rand.Rand) string {
	r := rng.Intn(20)
	switch {
	case r < 10:
		return "warm"
	case r < 12:
		return "cold"
	case r < 15:
		return "refine"
	case r < 17:
		return "batch"
	case r < 19:
		return "stream"
	default:
		if s.ingest {
			return "ingest"
		}
		return "warm"
	}
}

// one issues a single request of the given kind and records its fate.
func (s *soak) one(op string, rng *rand.Rand) {
	var status int
	var err error
	start := time.Now()
	switch op {
	case "warm":
		status, err = s.post("/v1/search", map[string]any{"entities": s.pickNames(rng, 2+rng.Intn(3))})
	case "cold":
		// Walks is a cache-key component: salting it with the sequence
		// guarantees a miss and a full cold pipeline pass. It stays below
		// ncserved's default budget (200 000), which bounds it.
		status, err = s.post("/v1/search", map[string]any{
			"entities": s.pickNames(rng, 2), "walks": 60000 + int(s.seq.Add(1)%100000),
		})
	case "refine":
		status, err = s.post("/v1/search", map[string]any{
			"entities": s.pickNames(rng, 2+rng.Intn(2)), "context_size": 40 + 10*rng.Intn(4), "top_k": 5,
		})
	case "batch":
		qs := []map[string]any{}
		for i := 0; i < 2+rng.Intn(2); i++ {
			qs = append(qs, map[string]any{"entities": s.pickNames(rng, 2)})
		}
		status, err = s.post("/v1/batch", map[string]any{"queries": qs})
	case "stream":
		status, err = s.post("/v1/stream", map[string]any{"queries": []map[string]any{
			{"entities": s.pickNames(rng, 2)}, {"entities": s.pickNames(rng, 3)},
		}})
	case "ingest":
		n := s.seq.Add(1)
		status, err = s.post("/v1/ingest", map[string]any{"adds": []map[string]string{
			{"s": fmt.Sprintf("soak:subject-%d", n), "p": "soak:touches", "o": s.names[rng.Intn(len(s.names))]},
		}})
	}
	dur := time.Since(start)
	failed := err != nil || status < 200 || status >= 300
	s.done.Add(1)
	if failed {
		s.errors.Add(1)
	}
	s.mu.Lock()
	s.byOp[op]++
	if failed {
		s.errBy[op]++
	}
	s.lat[op].Observe(dur)
	s.mu.Unlock()
}

// pickNames samples n distinct Table 1 entities.
func (s *soak) pickNames(rng *rand.Rand, n int) []string {
	if n > len(s.names) {
		n = len(s.names)
	}
	idx := rng.Perm(len(s.names))[:n]
	sort.Ints(idx) // stable order keeps equal sets hitting equal cache keys
	out := make([]string, n)
	for i, j := range idx {
		out[i] = s.names[j]
	}
	return out
}

func (s *soak) post(path string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// The server series the leak checks and the report read.
const (
	goroutines = "nc_process_goroutines"
	rss        = "nc_process_rss_bytes"
	epoch      = "nc_graph_epoch"
)

// scrape fetches /metrics, checks the exposition parses line by line,
// and returns every sample as series name → value.
func (s *soak) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for ln, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Every sample line is "name{labels} value" or "name value".
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("/metrics line %d unparseable: %q", ln+1, line)
		}
		var val float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &val); err != nil {
			return nil, fmt.Errorf("/metrics line %d has bad value: %q", ln+1, line)
		}
		out[line[:i]] = val
	}
	if requestTotal(out) == 0 {
		return nil, fmt.Errorf("/metrics carries no nc_http_requests_total samples")
	}
	return out, nil
}

// requestTotal sums nc_http_requests_total over every path and status
// class — the monotonicity witness.
func requestTotal(m map[string]float64) float64 {
	var total float64
	for series, v := range m {
		if strings.HasPrefix(series, "nc_http_requests_total{") {
			total += v
		}
	}
	return total
}

// waitReady polls /healthz until the server is taking traffic.
func (s *soak) waitReady(d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after %v", s.base, d)
}

// report prints the run: per-op counts, errors and client-side latency,
// then the resource trajectory.
func (s *soak) report(baseline, final map[string]float64, samples []map[string]float64) {
	fmt.Printf("\nncsoak: %d requests, %d errors, %d ticks skipped\n",
		s.done.Load(), s.errors.Load(), s.skipped.Load())
	fmt.Printf("%-8s %8s %7s %10s %10s %10s\n", "op", "count", "errors", "p50", "p95", "p99")
	s.mu.Lock()
	for _, op := range opNames {
		if s.byOp[op] == 0 {
			continue
		}
		sum := s.lat[op].Snapshot().Summarize()
		fmt.Printf("%-8s %8d %7d %9.1fms %9.1fms %9.1fms\n",
			op, s.byOp[op], s.errBy[op], sum.P50MS, sum.P95MS, sum.P99MS)
	}
	s.mu.Unlock()
	peakGoro, peakRSS := baseline[goroutines], baseline[rss]
	for _, sv := range samples {
		peakGoro = max(peakGoro, sv[goroutines])
		peakRSS = max(peakRSS, sv[rss])
	}
	fmt.Printf("goroutines: baseline %.0f, peak %.0f, final %.0f\n", baseline[goroutines], peakGoro, final[goroutines])
	if baseline[rss] > 0 {
		fmt.Printf("rss: baseline %.0f MiB, peak %.0f MiB, final %.0f MiB\n",
			baseline[rss]/(1<<20), peakRSS/(1<<20), final[rss]/(1<<20))
	}
	fmt.Printf("epoch: %.0f -> %.0f\n", baseline[epoch], final[epoch])
}
