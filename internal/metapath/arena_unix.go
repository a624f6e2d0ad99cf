//go:build unix

package metapath

import "syscall"

// mapArena returns size zeroed bytes in an anonymous private mapping, off
// the Go heap, or on the heap if the mapping fails.
func mapArena(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, size)
	}
	return mem
}

// unmapArena releases an arena from mapArena. A heap fallback is left to
// the collector: Munmap refuses memory it did not map.
func unmapArena(mem []byte) { _ = syscall.Munmap(mem) }
