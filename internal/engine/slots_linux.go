package engine

import "syscall"

// receiveSlots returns n bytes for a shard reader's receive slots, and the
// func that gives them back. They are one anonymous private mapping, rounded
// up to whole pages and off the Go heap: the collector would otherwise count
// a reader's 2 MiB of pointer-free, mostly untouched slot bytes as live heap
// and pace its cycles against them. If the mapping fails they come from the
// heap.
func receiveSlots(n int) ([]byte, func()) {
	page := syscall.Getpagesize()
	m, err := syscall.Mmap(-1, 0, (n+page-1)/page*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), func() {}
	}
	return m[:n], func() { syscall.Munmap(m) }
}
