//go:build !unix

package offheap

// Map returns size zeroed bytes; without mmap they live on the heap.
func Map(size int) []byte { return make([]byte, size) }

// Unmap leaves the memory to the collector.
func Unmap([]byte) {}
