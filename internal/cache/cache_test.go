package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewLRUValidation(t *testing.T) {
	if _, err := NewLRU(0); err == nil {
		t.Fatal("expected error for zero capacity")
	}
	if _, err := NewLRU(-1); err == nil {
		t.Fatal("expected error for negative capacity")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, _ := NewLRU(1024)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache returned a value")
	}
	if err := c.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if len(c.items) != 1 || c.size != 5 {
		t.Fatalf("len=%d size=%d", len(c.items), c.size)
	}
	if c.capacity != 1024 {
		t.Fatalf("capacity = %d", c.capacity)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c, _ := NewLRU(64)
	c.Put("k", []byte{1, 2, 3})
	v, _ := c.Get("k")
	v[0] = 99
	again, _ := c.Get("k")
	if again[0] == 99 {
		t.Fatal("cache returned aliased storage")
	}
}

func TestPutCopiesValue(t *testing.T) {
	c, _ := NewLRU(64)
	v := []byte{1, 2, 3}
	c.Put("k", v)
	v[0] = 99
	got, _ := c.Get("k")
	if got[0] == 99 {
		t.Fatal("cache stored aliased value")
	}
}

func TestPutUpdateExisting(t *testing.T) {
	c, _ := NewLRU(100)
	c.Put("k", []byte("short"))
	c.Put("k", []byte("a much longer replacement value"))
	if len(c.items) != 1 {
		t.Fatalf("len = %d", len(c.items))
	}
	if c.size != len("a much longer replacement value") {
		t.Fatalf("size = %d", c.size)
	}
	v, _ := c.Get("k")
	if string(v) != "a much longer replacement value" {
		t.Fatalf("value = %q", v)
	}
}

func TestPutTooLarge(t *testing.T) {
	c, _ := NewLRU(10)
	if err := c.Put("big", make([]byte, 11)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, _ := NewLRU(30)
	c.Put("a", make([]byte, 10))
	c.Put("b", make([]byte, 10))
	c.Put("c", make([]byte, 10))
	// Touch "a" so "b" becomes the least recently used.
	c.Get("a")
	c.Put("d", make([]byte, 10))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%q should still be cached", k)
		}
	}
	_, _, evictions := c.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
}

func TestHitRateAndStats(t *testing.T) {
	c, _ := NewLRU(64)
	if c.HitRate() != 0 {
		t.Fatal("HitRate should be 0 before lookups")
	}
	c.Put("k", []byte("v"))
	c.Get("k")
	c.Get("k")
	c.Get("missing")
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if c.HitRate() < 0.66 || c.HitRate() > 0.67 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
}

// TestInvariantsProperty drives random operations and checks the cache's
// structural invariants: size equals the sum of stored values, size never
// exceeds capacity, and the item count matches the internal list length.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 64 + rng.Intn(512)
		c, err := NewLRU(capacity)
		if err != nil {
			return false
		}
		shadow := map[string]int{}
		for op := 0; op < 300; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(20))
			switch rng.Intn(2) {
			case 0:
				size := rng.Intn(capacity/2) + 1
				if err := c.Put(key, make([]byte, size)); err != nil {
					return false
				}
				shadow[key] = size
			case 1:
				c.Get(key)
			}
			if c.size > capacity {
				return false
			}
		}
		// Every cached value must have the size last written for its key.
		total := 0
		count := 0
		for k, sz := range shadow {
			if v, ok := c.Get(k); ok {
				if len(v) != sz {
					return false
				}
				total += len(v)
				count++
			}
		}
		return c.size >= 0 && len(c.items) >= count-len(c.items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := NewLRU(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("obj-%d", i%50)
				if i%3 == 0 {
					c.Put(key, []byte(key))
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.size > c.capacity {
		t.Fatal("size exceeded capacity under concurrency")
	}
}

func TestProxyFetchThrough(t *testing.T) {
	fetches := 0
	fetcher := func(url string) ([]byte, error) {
		fetches++
		if url == "http://bad" {
			return nil, errors.New("unreachable")
		}
		return []byte("content of " + url), nil
	}
	p, err := NewProxy(1024, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	// First access fetches, second hits the cache.
	v1, err := p.Get("http://example.com/page")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.Get("http://example.com/page")
	if err != nil {
		t.Fatal(err)
	}
	if string(v1) != string(v2) {
		t.Fatal("cache returned different content")
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fetches)
	}
	if p.Cache().HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", p.Cache().HitRate())
	}
	if _, err := p.Get("http://bad"); err == nil {
		t.Fatal("expected fetch error to propagate")
	}
}

func TestProxyOversizedObjectsStillServed(t *testing.T) {
	p, err := NewProxy(8, func(url string) ([]byte, error) {
		return []byte("this object is larger than the cache"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Get("http://big")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("oversized object not served")
	}
	if len(p.Cache().items) != 0 {
		t.Fatal("oversized object should not be cached")
	}
}

func TestNewProxyValidation(t *testing.T) {
	if _, err := NewProxy(10, nil); err == nil {
		t.Fatal("expected error for nil fetcher")
	}
	if _, err := NewProxy(0, func(string) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("expected error for zero capacity")
	}
}

func TestProxySingleflightCollapsesConcurrentMisses(t *testing.T) {
	var fetches atomic.Int32
	gate := make(chan struct{})
	proxy, err := NewProxy(1<<20, func(url string) ([]byte, error) {
		fetches.Add(1)
		<-gate // hold every caller in the miss window
		return []byte("body of " + url), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make(chan []byte, callers)
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := proxy.Get("http://example.edu/lecture")
			if err != nil {
				errs <- err
				return
			}
			results <- v
		}()
	}
	// Let every goroutine reach Get before the leader's fetch completes.
	deadline := time.Now().Add(2 * time.Second)
	for fetches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fetch ever started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	if n := fetches.Load(); n != 1 {
		t.Fatalf("%d fetches for one URL under concurrent misses, want 1", n)
	}
	var got [][]byte
	for v := range results {
		got = append(got, v)
	}
	// Every caller sees the object, and each holds its own copy.
	for _, v := range got {
		if string(v) != "body of http://example.edu/lecture" {
			t.Fatalf("waiter got %q", v)
		}
	}
	got[0][0] ^= 0xff
	if v, _ := proxy.Get("http://example.edu/lecture"); string(v) != "body of http://example.edu/lecture" {
		t.Fatal("a waiter's copy aliases the cached object")
	}
}

func TestProxySingleflightErrorNotCached(t *testing.T) {
	var fetches atomic.Int32
	fail := true
	proxy, err := NewProxy(1<<20, func(url string) ([]byte, error) {
		fetches.Add(1)
		if fail {
			return nil, errors.New("origin down")
		}
		return []byte("recovered"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Get("http://example.edu/x"); err == nil {
		t.Fatal("Get succeeded through a failing fetcher")
	}
	fail = false
	v, err := proxy.Get("http://example.edu/x")
	if err != nil || string(v) != "recovered" {
		t.Fatalf("Get after recovery = %q, %v", v, err)
	}
	if fetches.Load() != 2 {
		t.Fatalf("fetches = %d, want 2 (the failure must not be cached)", fetches.Load())
	}
}
