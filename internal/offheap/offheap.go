// Package offheap maps memory outside the Go heap: anonymous private
// mappings for large, long-lived, pointer-free buffers whose owners know
// when they die — the metapath walk bank's arena and ppr's cached dense
// seed vectors. Memory from Map is not counted in the collector's heap,
// so it does not double through GC pacing; the owner must Unmap it
// exactly once and never touch it afterwards. Builds without mmap fall
// back to the heap, where Unmap leaves the buffer to the collector.
package offheap
