package slc

import (
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Directory owns the sharing lists for every line that has ever been cached.
// In hardware the list pointers live in the private caches with the
// directory holding only the head; in the simulator the Directory is the
// single point of serialization, which matches the protocol's semantics
// (the directory orders all coherence operations for a line).
type Directory struct {
	lists map[mem.Line]*List

	// coherenceLen samples the valid-copy count, persistLen the full list
	// length (valid + invalid pending persist), at every list mutation —
	// the two averages the paper contrasts in §V-B (~2 vs ~4).
	coherenceLen *stats.Dist
	persistLen   *stats.Dist

	// tel is nil unless Instrument attached a telemetry bus.
	tel *dirTel

	// listSlab and nodeSlab amortize per-line/per-sharer allocations: lists
	// and nodes are carved from chunks (never recycled — removed nodes may
	// still be referenced by in-flight transactions, so addresses stay live).
	listSlab []List
	nodeSlab []Node
}

// dirTel renders protocol activity on the timeline: persist-token hand-offs
// and invalidation-walk steps as instants, and the two §V-B list-length
// series as counter tracks. The directory has no clock of its own, so the
// machine supplies `now` when instrumenting.
type dirTel struct {
	bus    *telemetry.Bus
	now    func() telemetry.Ticks
	events telemetry.Track
	colen  telemetry.Track
	pelen  telemetry.Track
}

// Instrument attaches a telemetry bus with a clock source; a nil or
// sinkless bus is a no-op. Lists created afterwards emit through it.
func (d *Directory) Instrument(bus *telemetry.Bus, now func() telemetry.Ticks) {
	if !bus.Enabled() {
		return
	}
	d.tel = &dirTel{
		bus:    bus,
		now:    now,
		events: bus.Track("slc", "protocol"),
		colen:  bus.Track("slc", "coherence list"),
		pelen:  bus.Track("slc", "persist list"),
	}
}

// How many lists and nodes one slab chunk holds.
const (
	listChunk = 128
	nodeChunk = 256
)

// NewDirectory creates an empty directory.
func NewDirectory(set *stats.Set) *Directory {
	return &Directory{
		lists:        make(map[mem.Line]*List),
		coherenceLen: set.Dist("slc.coherence_list_len"),
		persistLen:   set.Dist("slc.persist_list_len"),
	}
}

// Reserve carves the first slab chunks for a run of at most n operations,
// which touches at most n lines: min(128, n) lists and min(256, n) nodes.
// Call it before the first List. A run that needs more refills the usual
// way.
func (d *Directory) Reserve(n int) {
	d.listSlab = make([]List, min(listChunk, n))
	d.nodeSlab = make([]Node, min(nodeChunk, n))
}

// List returns the sharing list for a line, creating it if needed.
func (d *Directory) List(l mem.Line) *List {
	lst, ok := d.lists[l]
	if !ok {
		if len(d.listSlab) == 0 {
			d.listSlab = make([]List, listChunk)
		}
		lst = &d.listSlab[0]
		d.listSlab = d.listSlab[1:]
		lst.Line = l
		lst.tel = d.tel
		lst.dir = d
		d.lists[l] = lst
	}
	return lst
}

// newNode carves a zeroed Node from the slab.
func (d *Directory) newNode() *Node {
	if len(d.nodeSlab) == 0 {
		d.nodeSlab = make([]Node, nodeChunk)
	}
	n := &d.nodeSlab[0]
	d.nodeSlab = d.nodeSlab[1:]
	return n
}

// Peek returns the list if it exists, without creating it.
func (d *Directory) Peek(l mem.Line) *List { return d.lists[l] }

// Sample records the current lengths of a line's list into the length
// distributions; an empty list records nothing. The machine calls this on
// every coherence transaction with the list it already holds.
func (d *Directory) Sample(lst *List) {
	if lst.Len() == 0 {
		return
	}
	co, pe := uint64(lst.ValidLen()), uint64(lst.Len())
	d.coherenceLen.Observe(co)
	d.persistLen.Observe(pe)
	if d.tel != nil {
		now := d.tel.now()
		d.tel.bus.Count(d.tel.colen, "slc.coherence_list_len", now, int64(co))
		d.tel.bus.Count(d.tel.pelen, "slc.persist_list_len", now, int64(pe))
	}
}

// Lengths returns (mean coherence-list length, mean persist-list length).
func (d *Directory) Lengths() (coherence, persist float64) {
	return d.coherenceLen.Mean(), d.persistLen.Mean()
}

// CheckAll verifies the invariants of every list; it returns the first error.
func (d *Directory) CheckAll() error {
	for _, lst := range d.lists {
		if err := lst.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// Lines returns the number of tracked lines.
func (d *Directory) Lines() int { return len(d.lists) }
