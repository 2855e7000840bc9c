package cache

import (
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// EncodeState writes the cache's logical contents deterministically: the
// LRU clock, then every resident line in address order with its recency
// stamp and a caller-encoded payload. Set membership and free-list linkage
// are derivable (geometry is config) and excluded.
func (c *Cache[T]) EncodeState(w *ckpt.Writer, payload func(*ckpt.Writer, T)) {
	w.U64(c.tick)
	var resident []*Entry[T]
	for _, set := range c.sets {
		resident = append(resident, set...)
	}
	sort.Slice(resident, func(i, j int) bool { return resident[i].Line < resident[j].Line })
	w.U32(uint32(len(resident)))
	for _, e := range resident {
		w.U64(uint64(e.Line))
		w.U64(e.lru)
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
