// Package cache implements the byte-bounded LRU object cache the paper lists
// among proxy duties ("data caching for memory-limited handheld devices"),
// plus a caching proxy layer keyed by request URL. It holds objects, not
// stream frames: the chain stage that retains recent frames for late joiners
// ("replay=<n>") is the frame history in package arq.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the cache.
var (
	// ErrTooLarge is returned by Put when a single object exceeds the cache
	// capacity.
	ErrTooLarge = errors.New("cache: object larger than capacity")
)

type entry struct {
	key   string
	value []byte
}

// LRU is a least-recently-used cache bounded by total byte size. It is safe
// for concurrent use.
type LRU struct {
	mu       sync.Mutex
	capacity int
	size     int
	order    *list.List // front = most recently used
	items    map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

// NewLRU returns a cache holding at most capacity bytes of values.
func NewLRU(capacity int) (*LRU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}, nil
}

// Get returns a copy of the cached value and marks it recently used.
func (c *LRU) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	v := el.Value.(*entry).value
	return append([]byte(nil), v...), true
}

// Put stores a copy of value under key, evicting least-recently-used entries
// as needed to stay within capacity.
func (c *LRU) Put(key string, value []byte) error {
	if len(value) > c.capacity {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(value), c.capacity)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*entry)
		c.size -= len(old.value)
		old.value = append([]byte(nil), value...)
		c.size += len(value)
		c.order.MoveToFront(el)
	} else {
		e := &entry{key: key, value: append([]byte(nil), value...)}
		c.items[key] = c.order.PushFront(e)
		c.size += len(value)
	}
	for c.size > c.capacity {
		c.evictOldest()
	}
	return nil
}

// evictOldest removes the least recently used entry. Caller holds the lock.
func (c *LRU) evictOldest() {
	back := c.order.Back()
	if back == nil {
		return
	}
	e := back.Value.(*entry)
	c.order.Remove(back)
	delete(c.items, e.key)
	c.size -= len(e.value)
	c.evictions++
}

// Delete removes a key if present and reports whether it was there.
func (c *LRU) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	c.size -= len(el.Value.(*entry).value)
	return true
}

// Len returns the number of cached objects.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Size returns the total bytes currently cached.
func (c *LRU) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Capacity returns the configured byte capacity.
func (c *LRU) Capacity() int { return c.capacity }

// Stats returns hit, miss and eviction counters.
func (c *LRU) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// HitRate returns hits / (hits + misses), or 0 before any lookups.
func (c *LRU) HitRate() float64 {
	hits, misses, _ := c.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Fetcher retrieves an object on a cache miss (the proxy's trip to the wired
// network on behalf of the handheld).
type Fetcher func(url string) ([]byte, error)

// call is one in-flight fetch that concurrent misses for the same URL wait
// on instead of fetching themselves.
type call struct {
	wg  sync.WaitGroup
	v   []byte
	err error
}

// Proxy is a caching fetch-through layer: handheld requests hit the cache
// first and fall back to the fetcher, whose responses are cached. Concurrent
// misses for the same URL are coalesced into a single fetch — without that,
// every waiter would invoke the fetcher and re-Put the same bytes (a
// thundering herd on the wired side exactly when the origin is slow).
type Proxy struct {
	cache   *LRU
	fetcher Fetcher

	mu       sync.Mutex
	inflight map[string]*call
}

// NewProxy returns a caching proxy over the given fetcher.
func NewProxy(capacity int, fetcher Fetcher) (*Proxy, error) {
	if fetcher == nil {
		return nil, errors.New("cache: fetcher is required")
	}
	lru, err := NewLRU(capacity)
	if err != nil {
		return nil, err
	}
	return &Proxy{cache: lru, fetcher: fetcher, inflight: make(map[string]*call)}, nil
}

// Get returns the object for url, consulting the cache first. On a miss, the
// first caller fetches while later callers for the same url block on the
// leader's result; exactly one fetch and one cache fill happen per miss.
func (p *Proxy) Get(url string) ([]byte, error) {
	if v, ok := p.cache.Get(url); ok {
		return v, nil
	}
	p.mu.Lock()
	if c, ok := p.inflight[url]; ok {
		p.mu.Unlock()
		c.wg.Wait()
		if c.err != nil {
			return nil, c.err
		}
		// Each waiter gets its own copy, as a cache hit would.
		return append([]byte(nil), c.v...), nil
	}
	c := &call{}
	c.wg.Add(1)
	p.inflight[url] = c
	p.mu.Unlock()

	c.v, c.err = p.fetch(url)
	p.mu.Lock()
	delete(p.inflight, url)
	p.mu.Unlock()
	c.wg.Done()
	if c.err != nil {
		return nil, c.err
	}
	return c.v, nil
}

// fetch performs the leader's miss path: origin fetch plus cache fill.
func (p *Proxy) fetch(url string) ([]byte, error) {
	v, err := p.fetcher(url)
	if err != nil {
		return nil, fmt.Errorf("cache: fetch %s: %w", url, err)
	}
	if err := p.cache.Put(url, v); err != nil && !errors.Is(err, ErrTooLarge) {
		return nil, err
	}
	return v, nil
}

// Cache exposes the underlying LRU for statistics.
func (p *Proxy) Cache() *LRU { return p.cache }
