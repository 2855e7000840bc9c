// Package cache provides the set-associative storage arrays used by the
// private L1/L2 caches, the shared LLC banks, and the directory (Table I).
// The array is generic over its per-line payload so the coherence protocols
// can attach their own state (MESI state bits, sharing-list pointers,
// atomic-group tags) without this package knowing about them.
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// Geometry describes a set-associative array.
type Geometry struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int {
	lines := g.SizeBytes / mem.LineSize
	if g.Ways <= 0 || lines < g.Ways {
		return 1
	}
	return lines / g.Ways
}

// Entry is one resident line with its payload. Entries are recycled on a
// per-cache free list: a removed entry keeps its Line and Data readable until
// the next Insert on the same cache reuses it, so callers may inspect a
// victim synchronously but must not retain the pointer across inserts.
type Entry[T any] struct {
	Line mem.Line
	Data T
	// lru is a per-set timestamp: larger = more recently used.
	lru uint64
	// nextFree chains the cache's free list while the entry is not resident.
	nextFree *Entry[T]
}

// Cache is a set-associative array with LRU replacement.
type Cache[T any] struct {
	geom  Geometry
	sets  [][]*Entry[T]
	index map[mem.Line]*Entry[T]
	tick  uint64
	free  *Entry[T]
	slab  []Entry[T]

	// Hits and Misses count Lookup outcomes.
	Hits, Misses uint64
}

// New creates an empty cache with the given geometry.
func New[T any](geom Geometry) *Cache[T] {
	// The index hint is capped: workloads rarely fill a large array, and a
	// full-capacity map is megabytes of mostly-idle buckets per machine —
	// past the cap, the map grows the usual doubling way (a few allocations).
	hint := geom.SizeBytes / mem.LineSize
	if hint > 2048 {
		hint = 2048
	}
	c := &Cache[T]{
		geom:  geom,
		sets:  make([][]*Entry[T], geom.Sets()),
		index: make(map[mem.Line]*Entry[T], hint),
	}
	// One backing array holds every set at full associativity, so Insert's
	// per-set appends never grow storage.
	backing := make([]*Entry[T], len(c.sets)*geom.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*geom.Ways : i*geom.Ways : (i+1)*geom.Ways]
	}
	return c
}

// setOf maps a line to its set.
func (c *Cache[T]) setOf(l mem.Line) int {
	return int(uint64(l) % uint64(len(c.sets)))
}

// Lookup returns the entry for l and bumps its recency, or nil on miss.
func (c *Cache[T]) Lookup(l mem.Line) *Entry[T] {
	e, ok := c.index[l]
	if !ok {
		c.Misses++
		return nil
	}
	c.Hits++
	c.tick++
	e.lru = c.tick
	return e
}

// Peek returns the entry without affecting recency or hit counters.
func (c *Cache[T]) Peek(l mem.Line) *Entry[T] { return c.index[l] }

// Insert adds line l, evicting the LRU victim from its set if the set is
// full. It returns the new entry and the victim (nil if none). Inserting a
// line that is already resident panics: callers must Lookup first — a
// double insert is always a protocol bug.
func (c *Cache[T]) Insert(l mem.Line, data T) (entry, victim *Entry[T]) {
	if _, ok := c.index[l]; ok {
		panic(fmt.Sprintf("cache: double insert of %v", l))
	}
	si := c.setOf(l)
	set := c.sets[si]
	// Pop the free list before evicting: this Insert's own victim then lands
	// on the free list untouched, so the caller can still read it after we
	// return (it is only recycled by a later Insert).
	e := c.free
	if e != nil {
		c.free = e.nextFree
		e.nextFree = nil
	} else {
		if len(c.slab) == 0 {
			c.slab = make([]Entry[T], 64)
		}
		e = &c.slab[0]
		c.slab = c.slab[1:]
	}
	if len(set) >= c.geom.Ways {
		victim = c.lruVictim(set)
		c.removeEntry(si, victim)
	}
	c.tick++
	e.Line, e.Data, e.lru = l, data, c.tick
	c.sets[si] = append(c.sets[si], e)
	c.index[l] = e
	return e, victim
}

func (c *Cache[T]) lruVictim(set []*Entry[T]) *Entry[T] {
	var victim *Entry[T]
	for _, e := range set {
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	return victim
}

// Victim returns the entry Insert would evict to make room for line l, or
// nil if the set still has a free way. Callers that must relocate victims
// (e.g. into an eviction buffer) can inspect and remove the victim before
// inserting.
func (c *Cache[T]) Victim(l mem.Line) *Entry[T] {
	si := c.setOf(l)
	if len(c.sets[si]) < c.geom.Ways {
		return nil
	}
	return c.lruVictim(c.sets[si])
}

// Remove deletes line l, returning its entry (nil if absent).
func (c *Cache[T]) Remove(l mem.Line) *Entry[T] {
	e, ok := c.index[l]
	if !ok {
		return nil
	}
	c.removeEntry(c.setOf(l), e)
	return e
}

func (c *Cache[T]) removeEntry(si int, e *Entry[T]) {
	set := c.sets[si]
	for i, x := range set {
		if x == e {
			set[i] = set[len(set)-1]
			c.sets[si] = set[:len(set)-1]
			break
		}
	}
	delete(c.index, e.Line)
	// Line and Data stay readable until a later Insert recycles the record.
	e.nextFree = c.free
	c.free = e
}

// Len returns the number of resident lines.
func (c *Cache[T]) Len() int { return len(c.index) }

// SetOccupancy returns how many lines the set holding l contains.
func (c *Cache[T]) SetOccupancy(l mem.Line) int { return len(c.sets[c.setOf(l)]) }

// Ways returns the associativity.
func (c *Cache[T]) Ways() int { return c.geom.Ways }

// ForEach visits every resident entry (iteration order unspecified).
func (c *Cache[T]) ForEach(fn func(*Entry[T])) {
	for _, e := range c.index {
		fn(e)
	}
}
