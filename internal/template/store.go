package template

import (
	"container/list"
	"sync"
)

// Policy configures a Store.
type Policy struct {
	// Capacity bounds the number of templates held; when full, the least
	// recently used entry is evicted. Zero or negative means unbounded.
	Capacity int
}

// Stats counts cache outcomes. Every lookup counts once: as a hit (an image
// was found and served warm), a miss (no image), or a fallback (an image was
// found, but the warm load fell back to the cold path: the image overlapped
// occupied routing, or its pads or boundary nets could not be bound). The
// store counts hits and misses at Get; the run-time manager's NoteFallback
// moves a lookup from Hits to Fallbacks. Stores and Evictions count Put's
// insertions and the entries it evicted.
type Stats struct {
	Hits, Misses, Stores, Evictions, Fallbacks int
}

// HitRate returns the share of lookups served warm, hits / (hits + misses +
// fallbacks), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	n := s.Hits + s.Misses + s.Fallbacks
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

type entry struct {
	key Key
	t   *Template
}

// Store is a content-addressed template cache with LRU eviction. It is safe
// for concurrent use.
type Store struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *entry
	entries map[Key]*list.Element
	stats   Stats
}

// NewStore builds a store under the given policy.
func NewStore(p Policy) *Store {
	return &Store{cap: p.Capacity, lru: list.New(), entries: map[Key]*list.Element{}}
}

// Get looks a template up, counting a hit or miss and refreshing recency.
func (s *Store) Get(k Key) (*Template, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	s.lru.MoveToFront(el)
	return el.Value.(*entry).t, true
}

// Contains reports presence without touching stats or recency.
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[k]
	return ok
}

// Put stores a template, returning the keys evicted to make room.
func (s *Store) Put(k Key, t *Template) []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*entry).t = t
		s.lru.MoveToFront(el)
		return nil
	}
	s.entries[k] = s.lru.PushFront(&entry{key: k, t: t})
	s.stats.Stores++
	var evicted []Key
	for s.cap > 0 && s.lru.Len() > s.cap {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.stats.Evictions++
		evicted = append(evicted, e.key)
	}
	return evicted
}

// Len returns the number of cached templates.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NoteFallback records that the warm load of a lookup Get counted as a hit
// fell back to the cold path: the lookup moves from Hits to Fallbacks.
func (s *Store) NoteFallback() {
	s.mu.Lock()
	s.stats.Hits--
	s.stats.Fallbacks++
	s.mu.Unlock()
}
