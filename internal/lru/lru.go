// Package lru is the repo's one fixed-capacity least-recently-used map. The
// jobs pool keeps its result cache in one, and the cluster keeps its
// read-through cache of owner replies in another.
package lru

import "container/list"

// Cache holds at most its capacity of entries; a Put past the capacity
// evicts the least recently used one. Not safe for concurrent use: its
// owner serializes access.
type Cache[K comparable, V any] struct {
	cap   int
	order *list.List // front = most recent; values are *entry[K, V]
	index map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache of capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, order: list.New(), index: make(map[K]*list.Element)}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry.
func (c *Cache[K, V]) Put(key K, val V) {
	if el, ok := c.index[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.index[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		c.Remove(c.order.Back().Value.(*entry[K, V]).key)
	}
}

// Remove deletes key, if present.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.index[key]; ok {
		c.order.Remove(el)
		delete(c.index, key)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return c.order.Len() }
