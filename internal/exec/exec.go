// Package exec is a read-only stub: nothing here runs work, since every
// request, a batch included, runs on its own goroutine. Default,
// Pool.Stats and PoolStats stay only because the benchmark harness
// compiles against them; the next change to the benchmark deletes them
// together with this package.
package exec

import "runtime"

// Pool stands for the removed executor; the process has one, Default.
type Pool struct{}

// PoolStats is the executor's load snapshot, kept at fixed values.
type PoolStats struct {
	// Workers is GOMAXPROCS.
	Workers int
	// Busy always reads 0: no task runs on a pool goroutine.
	Busy int64
	// InlineRuns always reads 0: no hand-off is tried.
	InlineRuns int64
}

// Stats returns GOMAXPROCS workers, none busy and no inline run.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Workers: runtime.GOMAXPROCS(0)}
}

// Default returns the process's one Pool.
func Default() *Pool { return &defaultPool }

var defaultPool Pool
