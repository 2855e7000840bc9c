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

// Cache is a set-associative array with LRU replacement. The set table is
// the one index: a line is found by scanning its set's ways.
type Cache[T any] struct {
	geom Geometry
	sets [][]*Entry[T]
	tick uint64
	free *Entry[T]
	slab []Entry[T]
	// waySlab carves a set's slots, at full associativity, on its first
	// insert: construction costs nothing per set, and a machine that touches
	// a handful of lines (a litmus test) never backs the rest of a large
	// array.
	waySlab []*Entry[T]
}

// Per-line state caps: how many entries and how many sets' ways one slab
// chunk holds.
const (
	entryChunk = 64
	setChunk   = 16
)

// New creates an empty cache with the given geometry. It allocates the set
// table and nothing per line: Reserve sizes the per-line state for a run.
func New[T any](geom Geometry) *Cache[T] {
	return &Cache[T]{
		geom: geom,
		sets: make([][]*Entry[T], geom.Sets()),
	}
}

// Reserve sizes the per-line state for a run that touches at most n distinct
// lines; call it before the first Insert. The first slab chunks hold
// min(64, n) entries and min(16, n) sets, so a run within the bound never
// carves another. Past it the cache still works: the slabs refill.
func (c *Cache[T]) Reserve(n int) {
	c.slab = make([]Entry[T], min(entryChunk, n))
	c.waySlab = make([]*Entry[T], min(setChunk, n)*c.geom.Ways)
}

// setOf maps a line to its set.
func (c *Cache[T]) setOf(l mem.Line) int {
	return int(uint64(l) % uint64(len(c.sets)))
}

// find returns line l's entry in set si, or nil.
func (c *Cache[T]) find(si int, l mem.Line) *Entry[T] {
	for _, e := range c.sets[si] {
		if e.Line == l {
			return e
		}
	}
	return nil
}

// Lookup returns the entry for l and bumps its recency, or nil on miss.
func (c *Cache[T]) Lookup(l mem.Line) *Entry[T] {
	e := c.Peek(l)
	if e != nil {
		c.tick++
		e.lru = c.tick
	}
	return e
}

// Peek returns the entry for l without affecting recency, or nil on miss.
func (c *Cache[T]) Peek(l mem.Line) *Entry[T] { return c.find(c.setOf(l), l) }

// Insert adds line l, evicting the LRU victim from its set if the set is
// full. It returns the new entry and the victim (nil if none). Inserting a
// line that is already resident panics: callers must Lookup first — a
// double insert is always a protocol bug.
func (c *Cache[T]) Insert(l mem.Line, data T) (entry, victim *Entry[T]) {
	si := c.setOf(l)
	if c.find(si, l) != nil {
		panic(fmt.Sprintf("cache: double insert of %v", l))
	}
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
			c.slab = make([]Entry[T], entryChunk)
		}
		e = &c.slab[0]
		c.slab = c.slab[1:]
	}
	if set == nil {
		if len(c.waySlab) < c.geom.Ways {
			c.waySlab = make([]*Entry[T], setChunk*c.geom.Ways)
		}
		c.sets[si] = c.waySlab[:0:c.geom.Ways]
		c.waySlab = c.waySlab[c.geom.Ways:]
	} else if len(set) >= c.geom.Ways {
		victim = c.lruVictim(set)
		c.removeEntry(si, victim)
	}
	c.tick++
	e.Line, e.Data, e.lru = l, data, c.tick
	c.sets[si] = append(c.sets[si], e)
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
	si := c.setOf(l)
	e := c.find(si, l)
	if e != nil {
		c.removeEntry(si, e)
	}
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
	// Line and Data stay readable until a later Insert recycles the record.
	e.nextFree = c.free
	c.free = e
}

// SetOccupancy returns how many lines the set holding l contains.
func (c *Cache[T]) SetOccupancy(l mem.Line) int { return len(c.sets[c.setOf(l)]) }

// Ways returns the associativity.
func (c *Cache[T]) Ways() int { return c.geom.Ways }
