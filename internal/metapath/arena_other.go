//go:build !unix

package metapath

// mapArena returns size zeroed bytes; without mmap they live on the heap.
func mapArena(size int) []byte { return make([]byte, size) }

// unmapArena leaves the arena to the collector.
func unmapArena([]byte) {}
