package agb

import (
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// EncodeState writes the AGB's logical occupancy: free lines per slice, the
// allocation queue and waiting FIFO (groups by ID with their reservation
// progress), each line's count of buffered-but-not-written versions, port
// occupancy, and slice-outage flags. Pools (lvPool, freeOps) and scheduled
// outage toggles are excluded: the former are allocation reuse, the latter
// live in the engine schedule. The enqueued/stalls counters and
// occupancy/groupSize distributions are in the machine's stats registry.
func (b *Buffer) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(b.free)))
	for _, n := range b.free {
		w.Int(n)
	}
	encodeRecs := func(recs []*groupRec) {
		w.U32(uint32(len(recs)))
		for _, r := range recs {
			w.U64(r.req.ID)
			w.U32(uint32(len(r.need)))
			for _, n := range r.need {
				w.Int(n)
			}
			w.Int(r.size)
			w.Int(r.buffered)
			w.Bool(r.complete)
			w.Bool(r.durable)
			w.Int(r.written)
			w.Bool(r.retired)
			places := make([]uint64, 0, len(r.place))
			for l := range r.place {
				places = append(places, uint64(l))
			}
			sort.Slice(places, func(i, j int) bool { return places[i] < places[j] })
			w.U32(uint32(len(places)))
			for _, l := range places {
				w.U64(l)
				w.Int(r.place[mem.Line(l)])
			}
		}
	}
	encodeRecs(b.queue)
	encodeRecs(b.waiting)

	lines := make([]uint64, 0, len(b.resident))
	for l := range b.resident {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		w.U64(l)
		w.Int(b.resident[mem.Line(l)])
	}
	b.ports.EncodeState(w)
	w.U32(uint32(len(b.offline)))
	for _, off := range b.offline {
		w.Bool(off)
	}
}
