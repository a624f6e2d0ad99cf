package exec

import (
	"runtime"
	"testing"
)

func TestDefaultPoolSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same pool")
	}
}

// TestPoolStats: the stub reports GOMAXPROCS workers, none busy and no
// inline run, the fixed values the benchmark harness reads.
func TestPoolStats(t *testing.T) {
	want := PoolStats{Workers: runtime.GOMAXPROCS(0)}
	if s := Default().Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}
