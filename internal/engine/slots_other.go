//go:build !linux

package engine

// receiveSlots returns n bytes for a shard reader's receive slots, and the
// func that gives them back: one heap slice here (slots_linux.go maps them
// off the heap).
func receiveSlots(n int) ([]byte, func()) { return make([]byte, n), func() {} }
