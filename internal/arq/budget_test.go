package arq

import (
	"sync"
	"testing"
)

// TestBudgetBurstThenShare: a full budget holds one burst and refuses the
// next byte; a refusal costs nothing; bytes relayed to the requester refill
// it at one in RetransmitShare, never past one burst.
func TestBudgetBurstThenShare(t *testing.T) {
	const frame = 1024
	var b Budget
	sent := uint64(1 << 40)
	n := 0
	for b.Take(frame, sent) {
		n++
	}
	if n != RetransmitBurst/frame {
		t.Fatalf("a full budget held %d frames of %d bytes, want %d", n, frame, RetransmitBurst/frame)
	}
	if b.Take(1, sent) {
		t.Fatal("an empty budget held another byte")
	}
	// A 1 MiB stream earns a quarter of itself back, refusals meanwhile
	// costing nothing.
	sent += 1 << 20
	got := 0
	for b.Take(frame, sent) {
		got++
	}
	if want := (1 << 20) / RetransmitShare / frame; got != want {
		t.Fatalf("after 1 MiB relayed the budget held %d frames, want %d", got, want)
	}
	// However much more is relayed, it refills one burst, no more.
	sent += 1 << 40
	n = 0
	for b.Take(frame, sent) {
		n++
	}
	if n != RetransmitBurst/frame {
		t.Fatalf("after a long stream the budget held %d frames, want %d", n, RetransmitBurst/frame)
	}
}

// TestBudgetConcurrentTakes: concurrent takers together draw one burst.
func TestBudgetConcurrentTakes(t *testing.T) {
	var b Budget
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for b.Take(256, 1<<40) {
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != RetransmitBurst/256 {
		t.Fatalf("concurrent takers drew %d takes of 256 bytes, want %d", total, RetransmitBurst/256)
	}
}
