// Package agb implements the Atomic Group Buffer of §II-B/§II-C: the TSO
// persist buffer that sits in parallel to the LLC, in the persistent domain
// (battery-backed SRAM, like Intel's WPQ). Private caches persist atomic
// groups directly into it, bypassing the coherence serialization of the LLC.
//
// Ingress (§II-B): space for a whole group is reserved when its first line
// is buffered; groups lay out consecutively, first-come first-served, with
// dependency order preserved because dependent groups reserve later. A
// group that does not fit stalls until egress frees space.
//
// Durability: a group becomes crash-durable when it and every group
// allocated before it are fully buffered — consecutive fully-buffered
// groups starting at the head form the "atomic super group" whose contents
// are guaranteed to reach NVM even across a power failure.
//
// Egress: within the super group all order is relaxed except same-address
// FIFO, which holds automatically because same-address lines route to the
// same memory controller.
//
// The same type models both organizations of §II-C: Slices=1 is the
// centralized circular SRAM buffer; Slices=N is the distributed per-rank
// organization with the two-phase (allocate/complete) central arbiter.
package agb

import (
	"fmt"
	"sort"

	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config sets the buffer geometry and timing.
type Config struct {
	// Slices is the number of AGB slices (1 = centralized; the paper's
	// evaluation uses 8, one per NVM rank).
	Slices int
	// LinesPerSlice is each slice's capacity in cachelines. The paper's
	// 10 KB slice holds 160 lines — two maximal 80-line groups.
	LinesPerSlice int
	// TransferLatency is the L1-to-AGB buffering time per line.
	TransferLatency sim.Time
	// ArbiterLatency is the allocation round trip through the central
	// arbiter (distributed organization only; ignored when Slices == 1).
	ArbiterLatency sim.Time
}

// DefaultConfig returns the paper's evaluated configuration: 8 distributed
// slices of 10 KB (160 lines) each with a central arbiter.
func DefaultConfig() Config {
	return Config{Slices: 8, LinesPerSlice: 160, TransferLatency: 4, ArbiterLatency: 12}
}

// Request describes one atomic group to persist.
type Request struct {
	// ID identifies the group (core.Group.ID).
	ID uint64
	// Lines are the group's dirty lines with the versions to persist.
	Lines map[mem.Line]mem.Version
	// OnAllocated fires when space is reserved (buffering begins).
	OnAllocated func()
	// OnLineBuffered fires as each line enters the persistent domain.
	OnLineBuffered func(mem.Line)
	// OnDurable fires when the group joins the durable super group.
	OnDurable func()
	// OnRetired fires when all the group's lines have been written to NVM
	// and its buffer space is reclaimed.
	OnRetired func()
}

type groupRec struct {
	req      Request
	need     []int // lines reserved per slice
	size     int
	buffered int
	complete bool
	durable  bool
	written  int
	retired  bool
	// place overrides the home slice per line when the arbiter rerouted the
	// reservation around offline slices (fault plans only; nil otherwise).
	place map[mem.Line]int
}

// Buffer is the atomic group buffer (centralized or distributed).
type Buffer struct {
	cfg    Config
	engine *sim.Engine
	mem    *nvm.Memory

	free    []int // free lines per slice
	ports   *sim.Bank
	queue   []*groupRec // allocation order, oldest first
	waiting []*groupRec // reservations that did not fit, FIFO

	// resident counts each line's buffered-but-not-written versions,
	// backing Buffered (the AGB search on LLC miss, §II-B); a line leaves
	// the map when its count reaches zero.
	resident map[mem.Line]int

	enqueued  *stats.Counter
	stalls    *stats.Counter
	occupancy *stats.Dist
	groupSize *stats.Dist

	// tel is nil unless Instrument attached a telemetry bus.
	tel *agbTel
	// flt is nil unless AttachFaults attached a fault plan; offline tracks
	// per-slice outages (allocated only alongside flt); outageEvs are the
	// scheduled outage toggles, cancellable once the run's work is done. The
	// plan-free allocation and ingress paths pay one branch each.
	flt       *faultplan.Plan
	offline   []bool
	outageEvs []sim.EventID

	// lvPool recycles the per-group sorted-line slices. A pool (not a single
	// scratch) because a zero-latency write callback can reenter
	// retire→tryAllocate→allocate while an egress iteration is live.
	lvPool [][]lineVer

	// freeOps recycles per-line transfer continuations (ingress completions
	// and NVM write callbacks), so steady-state draining schedules no
	// per-line closures.
	freeOps *lineOp
}

// lineOp is one line's in-flight transfer continuation. The two bound funcs
// are created once per record and reused; records recycle on a free list.
type lineOp struct {
	b    *Buffer
	rec  *groupRec
	line mem.Line
	inFn func()
	egFn func()
	next *lineOp
}

func (b *Buffer) newLineOp(rec *groupRec, l mem.Line) *lineOp {
	op := b.freeOps
	if op != nil {
		b.freeOps = op.next
	} else {
		op = &lineOp{b: b}
		op.inFn = op.ingressDone
		op.egFn = op.egressDone
	}
	op.rec, op.line = rec, l
	return op
}

// release returns the record to the free list. It runs before the completion
// body: the callbacks below may start further transfers, and those may reuse
// this record.
func (op *lineOp) release() (b *Buffer, rec *groupRec, l mem.Line) {
	b, rec, l = op.b, op.rec, op.line
	op.rec = nil
	op.next = b.freeOps
	b.freeOps = op
	return
}

func (op *lineOp) ingressDone() {
	b, rec, line := op.release()
	b.resident[line]++
	if rec.req.OnLineBuffered != nil {
		rec.req.OnLineBuffered(line)
	}
	rec.buffered++
	if rec.buffered == rec.size {
		rec.complete = true
		b.advanceFrontier()
	}
}

func (op *lineOp) egressDone() {
	b, rec, line := op.release()
	if n := b.resident[line]; n > 1 {
		b.resident[line] = n - 1
	} else {
		delete(b.resident, line)
	}
	rec.written++
	if rec.written == rec.size {
		b.retire(rec)
	}
}

// agbTel renders the buffer on the timeline: an occupancy counter track
// (the Fig. 15 AGB-occupancy-vs-drain view), a waiting-reservations counter,
// and instants for allocation, reservation stalls, supergroup egress, and
// retirement — all scoped by group ID so they correlate with the per-core
// AG lifecycle spans.
type agbTel struct {
	bus       *telemetry.Bus
	occupancy telemetry.Track
	waiting   telemetry.Track
}

// Instrument attaches a telemetry bus; a nil or sinkless bus is a no-op.
func (b *Buffer) Instrument(bus *telemetry.Bus) {
	if !bus.Enabled() {
		return
	}
	b.tel = &agbTel{
		bus:       bus,
		occupancy: bus.Track("agb", "occupancy"),
		waiting:   bus.Track("agb", "waiting"),
	}
}

// sample refreshes both counter tracks at the current cycle.
func (t *agbTel) sample(b *Buffer) {
	now := telemetry.Ticks(b.engine.Now())
	t.bus.Count(t.occupancy, "agb.occupancy_lines", now, int64(b.used()))
	t.bus.Count(t.waiting, "agb.waiting_reservations", now, int64(len(b.waiting)))
}

// mark drops a group-scoped instant on the occupancy track.
func (t *agbTel) mark(b *Buffer, name string, group uint64) {
	t.bus.Instant(t.occupancy, name, telemetry.Ticks(b.engine.Now()), group, 0)
}

// New creates a buffer draining into the given NVM.
func New(engine *sim.Engine, memory *nvm.Memory, cfg Config, set *stats.Set) *Buffer {
	if cfg.Slices <= 0 {
		cfg.Slices = 1
	}
	b := &Buffer{
		cfg:       cfg,
		engine:    engine,
		mem:       memory,
		free:      make([]int, cfg.Slices),
		ports:     sim.NewBank(cfg.Slices),
		resident:  make(map[mem.Line]int),
		enqueued:  set.Counter("agb.groups"),
		stalls:    set.Counter("agb.reservation_stalls"),
		occupancy: set.Dist("agb.occupancy_lines"),
		groupSize: set.Dist("agb.group_size"),
	}
	for i := range b.free {
		b.free[i] = cfg.LinesPerSlice
	}
	return b
}

// Capacity returns the total line capacity.
func (b *Buffer) Capacity() int { return b.cfg.Slices * b.cfg.LinesPerSlice }

// MaxGroupLines returns the largest group the buffer can ever admit: a
// group's slice partition must fit within each slice.
func (b *Buffer) MaxGroupLines() int { return b.cfg.LinesPerSlice }

// sliceOf routes a line to its slice; with one slice per NVM rank this is
// the rank mapping, so same-address FIFO per memory controller holds.
func (b *Buffer) sliceOf(l mem.Line) int {
	return int(uint64(l) % uint64(b.cfg.Slices))
}

// AttachFaults attaches a runtime fault-injection plan and schedules its
// slice-outage windows. An offline slice keeps draining the groups already
// reserved in it (the SRAM is battery-backed; buffered lines are safe) but
// accepts no new reservations: the arbiter reroutes waiting groups across
// the surviving slices. Rerouting happens at allocation time, so allocation
// order — and with it the durability frontier and dependency order — is
// untouched, and same-address FIFO still holds because NVM rank routing
// (RankOf) is independent of which slice buffered the line.
func (b *Buffer) AttachFaults(p *faultplan.Plan) {
	b.flt = p
	b.offline = make([]bool, b.cfg.Slices)
	for _, o := range p.AGBOutages() {
		o := o
		if o.Unit < 0 || o.Unit >= b.cfg.Slices || o.To <= o.From {
			continue
		}
		b.outageEvs = append(b.outageEvs,
			b.engine.At(sim.Time(o.From), func() { b.SetSliceOffline(o.Unit, true) }),
			b.engine.At(sim.Time(o.To), func() { b.SetSliceOffline(o.Unit, false) }))
	}
}

// CancelOutages cancels the scheduled outage toggles still pending. The
// machine calls this once the end-of-run flush completes: slice outages
// only affect new reservations, so past that point the toggles would do
// nothing but keep the event queue (and the clock) running.
func (b *Buffer) CancelOutages() {
	for _, id := range b.outageEvs {
		b.engine.Cancel(id)
	}
	b.outageEvs = nil
}

// SetSliceOffline takes a slice out of (or back into) reservation service.
// No-op without an attached fault plan.
func (b *Buffer) SetSliceOffline(s int, off bool) {
	if b.flt == nil || s < 0 || s >= b.cfg.Slices || b.offline[s] == off {
		return
	}
	b.offline[s] = off
	b.flt.AGBOffline(uint64(b.engine.Now()), s, off)
	// Either direction can unblock the waiting head: recovery restores
	// capacity, an outage changes the head's routing.
	b.tryAllocate()
}

// SliceOffline reports whether slice s is currently out of service.
func (b *Buffer) SliceOffline(s int) bool {
	return b.flt != nil && s >= 0 && s < b.cfg.Slices && b.offline[s]
}

// routeLine is sliceOf with outage awareness: lines homed on an offline
// slice spread deterministically (by address) across the online slices. If
// every slice is offline the home mapping stands — degenerate, but it keeps
// the buffer live and the outage windows bounded.
func (b *Buffer) routeLine(l mem.Line) int {
	home := b.sliceOf(l)
	if !b.offline[home] {
		return home
	}
	online := 0
	for _, off := range b.offline {
		if !off {
			online++
		}
	}
	if online == 0 {
		return home
	}
	k := int(uint64(l) % uint64(online))
	for s, off := range b.offline {
		if off {
			continue
		}
		if k == 0 {
			return s
		}
		k--
	}
	return home
}

// reroute recomputes a waiting reservation's slice placement against the
// current outage state. Called on the waiting head each allocation pass, so
// the placement frozen into rec.need/rec.place at allocation time matches
// the outage state the arbiter saw.
func (b *Buffer) reroute(rec *groupRec) {
	for s := range rec.need {
		rec.need[s] = 0
	}
	rec.place = nil
	for l := range rec.req.Lines {
		s := b.routeLine(l)
		rec.need[s]++
		if s != b.sliceOf(l) {
			if rec.place == nil {
				rec.place = make(map[mem.Line]int)
			}
			rec.place[l] = s
		}
	}
}

// placeOf returns the slice a line was placed in at allocation time.
func (b *Buffer) placeOf(rec *groupRec, l mem.Line) int {
	if rec.place != nil {
		if s, ok := rec.place[l]; ok {
			return s
		}
	}
	return b.sliceOf(l)
}

// Persist enqueues an atomic group. Groups must be enqueued in dependency
// order (the drain gating in internal/core guarantees this); the buffer
// preserves that order in allocation, durability, and same-slice egress.
func (b *Buffer) Persist(req Request) error {
	need := make([]int, b.cfg.Slices)
	for l := range req.Lines {
		need[b.sliceOf(l)]++
	}
	for s, n := range need {
		if n > b.cfg.LinesPerSlice {
			return fmt.Errorf("agb: group %d needs %d lines in slice %d (capacity %d)",
				req.ID, n, s, b.cfg.LinesPerSlice)
		}
	}
	b.enqueued.Inc()
	b.groupSize.Observe(uint64(len(req.Lines)))
	rec := &groupRec{req: req, need: need, size: len(req.Lines)}
	b.waiting = append(b.waiting, rec)
	if b.tel != nil {
		b.tel.sample(b)
	}
	b.tryAllocate()
	return nil
}

// tryAllocate admits waiting reservations in FIFO order while they fit —
// strict FIFO (no bypass) keeps allocation order equal to request order,
// which the durability frontier depends on.
func (b *Buffer) tryAllocate() {
	for len(b.waiting) > 0 {
		rec := b.waiting[0]
		if b.flt != nil {
			b.reroute(rec)
		}
		if !b.fits(rec.need) {
			b.stalls.Inc()
			if b.tel != nil {
				b.tel.mark(b, "reservation-stall", rec.req.ID)
			}
			return
		}
		b.waiting = b.waiting[1:]
		b.allocate(rec)
	}
}

func (b *Buffer) fits(need []int) bool {
	for s, n := range need {
		if n > b.free[s] {
			return false
		}
	}
	return true
}

func (b *Buffer) allocate(rec *groupRec) {
	for s, n := range rec.need {
		b.free[s] -= n
	}
	b.queue = append(b.queue, rec)
	b.occupancy.Observe(uint64(b.used()))
	if b.tel != nil {
		b.tel.mark(b, "allocate", rec.req.ID)
		b.tel.sample(b)
	}
	if b.flt != nil && rec.place != nil {
		now := uint64(b.engine.Now())
		lvs := b.sortedLines(rec.req.Lines)
		for _, lv := range lvs {
			if s, ok := rec.place[lv.line]; ok {
				b.flt.AGBRedirect(now, uint64(lv.line), b.sliceOf(lv.line), s)
			}
		}
		b.putLines(lvs)
	}

	allocDelay := sim.Time(0)
	if b.cfg.Slices > 1 {
		allocDelay = b.cfg.ArbiterLatency // two-phase arbiter round trip
	}
	b.engine.Schedule(allocDelay, func() {
		if rec.req.OnAllocated != nil {
			rec.req.OnAllocated()
		}
		b.ingress(rec)
	})
}

// ingress transfers the group's lines into the buffer, one port claim per
// line on its slice. Empty groups complete immediately.
func (b *Buffer) ingress(rec *groupRec) {
	if rec.size == 0 {
		rec.complete = true
		b.advanceFrontier()
		return
	}
	lvs := b.sortedLines(rec.req.Lines)
	for _, lv := range lvs {
		s := b.placeOf(rec, lv.line)
		if b.flt != nil {
			if d := b.flt.AGBStall(uint64(b.engine.Now()), s); d > 0 {
				// A stalled ingress port holds the transfer (and everything
				// queued behind it on this slice) for the stall window.
				b.ports.Claim(s, b.engine.Now(), sim.Time(d))
			}
		}
		start := b.ports.Claim(s, b.engine.Now(), b.cfg.TransferLatency)
		b.engine.At(start+b.cfg.TransferLatency, b.newLineOp(rec, lv.line).inFn)
	}
	b.putLines(lvs)
}

// advanceFrontier marks consecutive complete groups at the head durable —
// the atomic super group — and starts their NVM egress.
func (b *Buffer) advanceFrontier() {
	for _, rec := range b.queue {
		if !rec.complete {
			return
		}
		if rec.durable {
			continue
		}
		rec.durable = true
		if rec.req.OnDurable != nil {
			rec.req.OnDurable()
		}
		b.egress(rec)
	}
}

// egress writes a durable group's lines to NVM. Order across unique lines
// is free; same-address order holds per rank by construction.
func (b *Buffer) egress(rec *groupRec) {
	if b.tel != nil {
		b.tel.mark(b, "supergroup-egress", rec.req.ID)
	}
	if rec.size == 0 {
		b.retire(rec)
		return
	}
	lvs := b.sortedLines(rec.req.Lines)
	for _, lv := range lvs {
		b.mem.Write(lv.line, lv.ver, b.newLineOp(rec, lv.line).egFn)
	}
	b.putLines(lvs)
}

// retire reclaims space. Space frees in FIFO order (circular buffer): a
// group's frames recycle only when it reaches the queue head.
func (b *Buffer) retire(rec *groupRec) {
	rec.retired = true
	for len(b.queue) > 0 && b.queue[0].retired {
		head := b.queue[0]
		b.queue = b.queue[1:]
		for s, n := range head.need {
			b.free[s] += n
		}
		if b.tel != nil {
			b.tel.mark(b, "retire", head.req.ID)
			b.tel.sample(b)
		}
		if head.req.OnRetired != nil {
			head.req.OnRetired()
		}
	}
	b.tryAllocate()
}

// PortClaim exposes slice ingress-port arbitration to systems that model
// epoch persists through the buffer without full group bookkeeping (the
// idealized BSP+SLC+AGB stepping stone of §V-B).
func (b *Buffer) PortClaim(slice int, at, occupancy sim.Time) sim.Time {
	return b.ports.Claim(slice%b.cfg.Slices, at, occupancy)
}

// Buffered reports whether a version of line l is buffered and not yet
// written to NVM (the AGB search performed under the shadow of an LLC miss).
func (b *Buffer) Buffered(l mem.Line) bool { return b.resident[l] > 0 }

// used returns occupied lines across all slices.
func (b *Buffer) used() int {
	u := 0
	for _, f := range b.free {
		u += b.cfg.LinesPerSlice - f
	}
	return u
}

// Used returns the currently occupied line count.
func (b *Buffer) Used() int { return b.used() }

// Waiting returns the number of reservations stalled for space.
func (b *Buffer) Waiting() int { return len(b.waiting) }

// InFlight returns the number of allocated, unretired groups.
func (b *Buffer) InFlight() int { return len(b.queue) }

// Stalls returns the reservation-stall count.
func (b *Buffer) Stalls() uint64 { return b.stalls.Value }

// Ports exposes the per-slice ingress ports for utilization snapshots.
func (b *Buffer) Ports() *sim.Bank { return b.ports }

type lineVer struct {
	line mem.Line
	ver  mem.Version
}

// sortedLines orders a group's lines by address so event scheduling is
// deterministic run to run. The slice comes from the buffer's pool; return
// it with putLines when the iteration is done.
func (b *Buffer) sortedLines(m map[mem.Line]mem.Version) []lineVer {
	var out []lineVer
	if n := len(b.lvPool); n > 0 {
		out = b.lvPool[n-1][:0]
		b.lvPool = b.lvPool[:n-1]
	}
	for l, v := range m {
		out = append(out, lineVer{l, v})
	}
	// Insertion sort: groups hold at most AGLimit (~80) lines, and
	// sort.Slice's reflection allocates on every call. Huge groups (BSP
	// epochs through an idealized AGB) still take the O(n log n) path.
	if len(out) > 128 {
		sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
		return out
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].line < out[j-1].line; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (b *Buffer) putLines(s []lineVer) {
	b.lvPool = append(b.lvPool, s)
}
