package cache

import (
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// EncodeState writes the cache's logical contents deterministically: hit
// counters, the LRU clock, and every resident line in address order with
// its recency stamp, a reserved zero byte (the retired pin bit, kept so
// blobs stay byte-identical), and a caller-encoded payload. Set membership
// and free-list linkage are derivable (geometry is config) and excluded.
func (c *Cache[T]) EncodeState(w *ckpt.Writer, payload func(*ckpt.Writer, T)) {
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.tick)
	lines := make([]uint64, 0, len(c.index))
	for l := range c.index {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		e := c.index[mem.Line(l)]
		w.U64(l)
		w.U64(e.lru)
		w.Bool(false)
		payload(w, e.Data)
	}
}

// EncodeState writes the eviction buffer's occupancy state: high-water mark,
// stall count, and resident lines in address order with payloads.
func (b *EvictBuffer[T]) EncodeState(w *ckpt.Writer, payload func(*ckpt.Writer, T)) {
	w.Int(b.MaxOccupancy)
	w.U64(b.Stalls)
	lines := make([]uint64, 0, len(b.entries))
	for l := range b.entries {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		w.U64(l)
		payload(w, b.entries[mem.Line(l)])
	}
}
