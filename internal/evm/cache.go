package evm

import "tinyevm/internal/types"

// lruCache is the size-capped LRU map of JUMPDEST bitmaps, keyed by code
// hash, on MemState. A daemon serving millions of distinct contracts
// touches an unbounded stream of code blobs; the cap turns the cache
// into a fixed-size working set instead of a monotonically growing map.
// Eviction is exact LRU over an intrusive doubly-linked list, so the hot
// contract population (which is tiny compared to the cap) never churns.
//
// lruCache is not safe for concurrent use; callers hold the owning
// mutex (MemState.analysisMu).
type lruCache struct {
	cap        int
	entries    map[types.Hash]*lruNode
	head, tail *lruNode // head = most recently used
}

type lruNode struct {
	key        types.Hash
	value      JumpDestBitmap
	prev, next *lruNode
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, entries: make(map[types.Hash]*lruNode)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key types.Hash) (JumpDestBitmap, bool) {
	n, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.moveToFront(n)
	return n.value, true
}

// put inserts or updates key, marks it most recently used, and evicts
// the least recently used entry when the cache is over capacity.
func (c *lruCache) put(key types.Hash, value JumpDestBitmap) {
	if n, ok := c.entries[key]; ok {
		n.value = value
		c.moveToFront(n)
		return
	}
	n := &lruNode{key: key, value: value}
	c.entries[key] = n
	c.pushFront(n)
	if len(c.entries) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int { return len(c.entries) }

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
