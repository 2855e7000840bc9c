package tardis

import (
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// EncodeState writes the timestamp state deterministically: per-cache
// program timestamps in cache order, then every line in address order with
// its wts/rts and per-cache lease ends. Slab internals are excluded — they
// are allocation machinery, not logical state. The stats counters live in
// the machine's registry and are encoded there.
func (s *State) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(s.pts)))
	for _, t := range s.pts {
		w.U64(t)
	}
	lines := make([]uint64, 0, len(s.lines))
	for l := range s.lines {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, lu := range lines {
		m := s.lines[mem.Line(lu)]
		w.U64(lu)
		w.U64(m.wts)
		w.U64(m.rts)
		for _, end := range m.leases {
			w.U64(end)
		}
	}
}
