package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	notable "repro"
	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/server"
)

func discardf(string, ...any) {}

// engineOptions are ncserved's defaults with the workload's selector.
func engineOptions(w *workloadSpec, seed int64) notable.Options {
	return notable.Options{
		ContextSize: contextK,
		Selector:    string(w.Selector),
		Walks:       walks,
		Alpha:       0.05,
		Seed:        seed,
		CacheShards: shards,
	}
}

// uncachedOptions disable every cache layer: each request does all its work.
func uncachedOptions(w *workloadSpec, seed int64) notable.Options {
	opt := engineOptions(w, seed)
	opt.CacheSize = -1
	return opt
}

// referenceOptions configure the engines answers are checked against: same
// pipeline, no cache layer, no intra-query parallelism.
func referenceOptions(w *workloadSpec, seed int64) notable.Options {
	opt := uncachedOptions(w, seed)
	opt.Parallelism = 1
	return opt
}

func generateGraph(w *workloadSpec) *gen.Dataset {
	cfg := gen.YAGOConfig{Seed: graphSeed, Scale: 1}
	if w.Big {
		cfg.AmbientScale = ambientBig
	}
	return gen.YAGOLike(cfg)
}

// entityPool lists the names of the graph's actor nodes in ID order.
func entityPool(g *kg.Graph) []string {
	for t := 0; t < g.NumTypes(); t++ {
		if g.TypeName(kg.TypeID(t)) != poolType {
			continue
		}
		ids := g.NodesWithType(kg.TypeID(t))
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = g.NodeName(id)
		}
		return names
	}
	return nil
}

// sample is one response kept for the correctness gate.
type sample struct {
	Req  request
	Body []byte
}

// maxSamples bounds what one client keeps; the gate needs 32 in all.
const maxSamples = 24

// env is one workload's system under test: graph, engine, an
// internal/server on a loopback TCP listener, and the closed-loop clients.
type env struct {
	w      *workloadSpec
	seed   int64
	tmp    string
	data   *gen.Dataset
	graph  *kg.Graph // as generated: the bootstrap graph of a durable engine
	gen    *generator
	eng    *notable.Engine
	walDir string
	front  *frontend

	clients [numClients]*client
	next    [numClients]int // next request index per client
	samples [numClients][]sample
	mu      sync.Mutex         // guards acks and ackedAt
	acks    int                // acknowledged ingest batches
	ackedAt map[uint64]request // epoch → the batch that published it

	tracer *tracer // non-nil while client-side spans are on
	topUp  bool    // keep every response: the gate is short of samples
}

// setup builds everything the window needs: graph generation, engine (WAL
// open for a durable one), first Transitions(), listener, pre-warm.
func setup(w *workloadSpec, seed int64, tmp string) (*env, error) {
	e := &env{w: w, seed: seed, tmp: tmp, ackedAt: make(map[uint64]request)}
	e.data = generateGraph(w)
	e.graph = e.data.Graph
	pool := entityPool(e.graph)
	if len(pool) < 4+2*sweepSize {
		return nil, fmt.Errorf("entity pool has %d %s nodes", len(pool), poolType)
	}
	e.gen = newGenerator(w, seed, pool)

	opt := engineOptions(w, seed)
	if w.Durable {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, err
		}
		e.walDir = dir
		e.eng, _, err = notable.NewDurableEngine(e.graph, opt, e.durability())
		if err != nil {
			return nil, err
		}
	} else {
		e.eng = notable.NewEngine(e.graph, opt)
	}
	e.graph.Transitions()

	var err error
	if e.front, err = serve(e.eng); err != nil {
		return nil, err
	}
	for c := range e.clients {
		e.clients[c] = newClient(e.front.base)
	}
	if w.Prewarm {
		if err := e.prewarm(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) durability() notable.Durability {
	return notable.Durability{WALDir: e.walDir, Sync: notable.SyncBatch, Logf: discardf}
}

// frontend is a running internal/server on a loopback TCP port.
type frontend struct {
	base   string
	srv    *server.Server
	cancel context.CancelFunc
	served chan error
}

// serve starts an internal/server over eng. Access-log lines are
// discarded: two clients would otherwise time the terminal.
func serve(eng *notable.Engine) (*frontend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &frontend{
		base:   "http://" + ln.Addr().String(),
		srv:    server.New(eng, server.Config{Logf: discardf}),
		cancel: cancel,
		served: make(chan error, 1),
	}
	go func() { f.served <- f.srv.Serve(ctx, ln) }()
	return f, nil
}

// stop drains the server and waits until it has returned.
func (f *frontend) stop() {
	f.cancel()
	<-f.served
}

// prewarm answers every hot query once, split across the clients.
func (e *env) prewarm() error {
	errs := make(chan error, numClients)
	for c := range e.clients {
		go func(c int) {
			for j := c; j < len(e.gen.hot); j += numClients {
				if rep := e.clients[c].do(searchRequest(e.gen.hot[j])); !rep.OK {
					errs <- fmt.Errorf("pre-warm of hot query %d failed: %s", j, rep.Body)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for range e.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close drains the server, closes the engine and removes the WAL dir.
func (e *env) close() {
	for _, c := range e.clients {
		if c != nil {
			c.close()
		}
	}
	if e.front != nil {
		e.front.stop()
	}
	if e.eng != nil {
		e.eng.Close()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

// drive runs the closed loop on every client for d: each client issues its
// next generated request as soon as the previous reply is complete. Request
// indices continue from the previous phase, so a session or a delete that
// spans the warm-up boundary stays consistent.
func (e *env) drive(d time.Duration) *tally {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	parts := make([]tally, numClients)
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				e.step(c, &parts[c])
			}
			parts[c].Elapsed = time.Since(start)
		}(c)
	}
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// step issues client c's next request and books the reply.
func (e *env) step(c int, t *tally) {
	i := e.next[c]
	e.next[c]++
	begin := time.Now()
	req := e.gen.request(c, i)
	sent := time.Now()
	rep := e.clients[c].do(req)
	done := time.Now()
	t.record(req, rep)
	if rep.OK && req.Kind == opIngest {
		e.mu.Lock()
		e.acks++
		e.ackedAt[rep.Epoch] = req
		e.mu.Unlock()
	}
	if rep.OK && req.Kind != opIngest && (e.topUp || i%e.w.SampleEvery == 0) && len(e.samples[c]) < maxSamples {
		e.samples[c] = append(e.samples[c], sample{req, rep.Body})
	}
	if tr := e.tracer; tr != nil {
		id := fmt.Sprintf("c%d-%d", c, i)
		root := tr.add(id, 0, "client."+opNames[req.Kind], begin, done)
		tr.add(id, root, "bench.generate", begin, sent)
		tr.add(id, root, "http.roundtrip", sent, done)
	}
}
