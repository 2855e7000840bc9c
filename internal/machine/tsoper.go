package machine

import (
	"fmt"

	"repro/internal/agb"
	"repro/internal/coherence/slc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// tsoperSys implements both TSOPER (§II–§IV) and its stop-the-world
// strawman STW (§III). The two share the entire atomic-group machinery;
// STW additionally stalls every core's store drain from the moment a group
// freezes until it is fully buffered in the AGB.
type tsoperSys struct {
	m        *Machine
	stw      bool
	trackers []*core.Tracker

	// liveCount tracks not-yet-durable groups for the end-of-run drain.
	liveCount int
	drainDone func()

	// STW world-stall state.
	stallRefs    int
	stallWaiters []func()

	agSize *statsDistProxy
}

// statsDistProxy defers dist lookup so construction order doesn't matter.
type statsDistProxy struct {
	m    *Machine
	name string
}

func (p *statsDistProxy) observe(v uint64) { p.m.set.Dist(p.name).Observe(v) }

func newTSOPERSys(m *Machine) *tsoperSys {
	s := &tsoperSys{
		m:      m,
		stw:    m.cfg.System == STW,
		agSize: &statsDistProxy{m: m, name: "ag.size"},
	}
	ids := core.NewIDSource()
	for i := 0; i < m.cfg.Cores; i++ {
		tr := core.NewTracker(i, ids)
		tr.OnOpen = func(g *core.Group) {
			s.m.journal = append(s.m.journal, g)
			s.liveCount++
			s.m.agBegin(g, agPhaseOpen)
		}
		tr.OnDrainable = s.startDrain
		s.trackers = append(s.trackers, tr)
	}
	return s
}

// group resolves an AG ID through the journal: IDs count from 1 in the
// order OnOpen appends groups to it, and 0 means "no group" (nil).
func (s *tsoperSys) group(id uint64) *core.Group {
	if id == 0 {
		return nil
	}
	return s.m.journal[id-1]
}

// destructive: persistent lines use the non-destructive sharing-list
// discipline; with a persist filter configured (the WHISPER-style hybrid
// the §V baseline discussion sketches, where only ~4% of stores touch
// persistent data), non-persistent lines fall back to conventional
// destructive invalidation and skip atomic-group tracking entirely.
func (s *tsoperSys) destructive(l mem.Line) bool {
	return s.m.cfg.PersistFilter != nil && !s.m.cfg.PersistFilter(l)
}

// persistent reports whether l is subject to persistency tracking.
func (s *tsoperSys) persistent(l mem.Line) bool {
	return s.m.cfg.PersistFilter == nil || s.m.cfg.PersistFilter(l)
}

// gateStore blocks a store whose target line belongs to a frozen,
// not-yet-buffered group of this core (§II-A: "A store ... is blocked if it
// tries to write a cacheline in a frozen atomic group"), and, under STW,
// any store while the world is stopped.
func (s *tsoperSys) gateStore(c *coreUnit, line mem.Line, proceed func()) {
	if s.stw && s.stallRefs > 0 {
		s.stallWaiters = append(s.stallWaiters, func() { s.gateStore(c, line, proceed) })
		return
	}
	if node := s.m.nodeOf(c.id, line); node != nil && node.Dirty {
		if g := s.group(node.AGID); g != nil && g.State() != core.Open {
			s.m.waitLineFree(c.id, line, func() { s.gateStore(c, line, proceed) })
			return
		}
	}
	proceed()
}

// groupFor returns core c's open group, freezing it first if admitting
// line (as a new member) would exceed the AG size limit (§II-A trigger 4).
func (s *tsoperSys) groupFor(c int, line mem.Line) *core.Group {
	g := s.trackers[c].Open()
	if !g.Has(line) && g.Size() >= s.m.cfg.AGLimit {
		s.freeze(g, core.FreezeSizeLimit)
		g = s.trackers[c].Open()
	}
	return g
}

func (s *tsoperSys) storeCommitted(c *coreUnit, node *slc.Node, prevDirty *slc.Node) {
	if !s.persistent(node.Line) {
		return
	}
	g := s.groupFor(c.id, node.Line)
	node.AGID = g.ID
	if prevDirty != nil {
		// The persist-before edge source: the line's newest unpersisted
		// predecessor on the sharing list.
		if pg := s.group(prevDirty.AGID); pg != nil {
			g.DependOn(pg)
		}
	}
	g.AddStore(node.Line, node.Version, node.Clear())
}

func (s *tsoperSys) loadObservedDirty(c *coreUnit, readerNode, producer *slc.Node) {
	if !s.persistent(readerNode.Line) || producer.AGID == 0 {
		return
	}
	g := s.groupFor(c.id, readerNode.Line)
	readerNode.AGID = g.ID
	if pg := s.group(producer.AGID); pg != nil {
		g.DependOn(pg)
	}
	g.AddCleanRead(readerNode.Line, producer.Version, readerNode.Clear())
}

// exposed freezes the owning group of a dirty line touched by a remote
// request. SLC multiversioning means the requester never waits for the
// owner's persist: extra delay is zero (this is OBS 3, the L1-exclusion
// elimination).
func (s *tsoperSys) exposed(n *slc.Node, write bool) sim.Time {
	g := s.group(n.AGID)
	if g == nil {
		return 0
	}
	reason := core.FreezeRemoteRead
	if write {
		reason = core.FreezeRemoteWrite
	}
	s.freeze(g, reason)
	return 0
}

func (s *tsoperSys) evictedDirty(n *slc.Node) {
	if g := s.group(n.AGID); g != nil {
		s.freeze(g, core.FreezeEviction)
	}
}

// dirEvicted immediately freezes and persists the group holding the line
// whose directory entry was displaced (§III-B): the entry is buffered on
// the side until the affected cachelines persist.
func (s *tsoperSys) dirEvicted(n *slc.Node) {
	if g := s.group(n.AGID); g != nil {
		s.freeze(g, core.FreezeDirEviction)
	}
}

// freeze performs an idempotent freeze, recording figure statistics and,
// under STW, stopping the world until the group is buffered.
func (s *tsoperSys) freeze(g *core.Group, reason core.FreezeReason) {
	if !g.Freeze(reason) {
		return
	}
	if g.Size() > 0 {
		s.agSize.observe(uint64(g.Size()))
		s.m.timeline.Append(uint64(s.m.engine.Now()), float64(g.Size()))
	}
	s.m.emit(Event{Kind: EvFreeze, Core: g.Core, Group: g.ID, Reason: reason})
	s.m.agEnd(g, agPhaseOpen)
	s.m.agBegin(g, agPhaseFrozen)
	if s.stw {
		s.stallRefs++
	}
}

func (s *tsoperSys) unstall() {
	s.stallRefs--
	if s.stallRefs == 0 {
		ws := s.stallWaiters
		s.stallWaiters = nil
		for _, fn := range ws {
			fn := fn
			s.m.engine.Schedule(0, fn)
		}
	}
}

// nodeCleared advances the waiting-to-become-tail accounting for every
// group of the node's cache (the predicate is per cache-line, monotone).
func (s *tsoperSys) nodeCleared(n *slc.Node) {
	s.trackers[n.Cache].LineCleared(n.Line)
}

// startDrain buffers a drainable group into the AGB (§IV-B phase two).
func (s *tsoperSys) startDrain(g *core.Group) {
	g.StartDrain()
	s.m.emit(Event{Kind: EvDrainStart, Core: g.Core, Group: g.ID})
	s.m.agEnd(g, agPhaseFrozen)
	s.m.agBegin(g, agPhaseDraining)
	req := agb.Request{
		ID:    g.ID,
		Lines: g.DirtyView(),
		OnLineBuffered: func(l mem.Line) {
			s.m.persistWrites.Inc()
			s.m.emit(Event{Kind: EvLineBuffered, Core: g.Core, Group: g.ID, Line: l})
			// "The LLC is constantly updated with the newest-epoch version
			// of a cacheline while simultaneously enqueueing the same
			// version in the AGB" (§II-B) — each persisted line is also a
			// coherence writeback into the LLC.
			if ver, ok := g.VersionOf(l); ok {
				s.m.llcFill(l, ver)
				s.m.coherenceWrites.Inc()
			}
			// The version enters the persistent domain: the node leaves
			// the sharing list (passes its token) — "as soon as a
			// cacheline is buffered in the AGB it leaves the sharing list".
			node := s.m.nodeOf(g.Core, l)
			if node != nil && node.AGID == g.ID && node.Dirty {
				up := s.m.dir.List(l).MarkPersisted(node)
				s.m.applyUpdate(up)
				node.AGID = 0
				if node.OnList() {
					// A valid node normally survives as a clean sharer —
					// but if its frame lives in the eviction buffer the
					// line was already evicted: it only stayed to persist
					// (§III-B) and now leaves coherence entirely.
					if held, evicted := s.m.priv[g.Core].evbuf.Get(l); evicted && held == node {
						s.m.applyUpdate(s.m.dir.List(l).RemoveClean(node))
					}
				}
				s.m.releaseLine(g.Core, l)
			}
		},
		OnDurable: func() {
			g.MarkDurable()
			s.m.durableOrder = append(s.m.durableOrder, g)
			s.m.emit(Event{Kind: EvDurable, Core: g.Core, Group: g.ID})
			s.m.agEnd(g, agPhaseDraining)
			s.m.agBegin(g, agPhaseDurable)
			s.liveCount--
			s.checkDrainDone()
		},
		OnRetired: func() {
			g.Retire()
			s.m.emit(Event{Kind: EvRetired, Core: g.Core, Group: g.ID})
			s.m.agEnd(g, agPhaseDurable)
			if s.stw {
				// The stop-the-world strawman takes no durability credit
				// from persist buffering: the world restarts only when the
				// group's lines have reached NVM — this is what makes
				// high-persist-volume applications (radix, lu_ncb)
				// catastrophic under STW (§V-A).
				s.unstall()
			}
		},
	}
	if err := s.m.buffer.Persist(req); err != nil {
		panic(fmt.Sprintf("machine: %v (group %v)", err, g))
	}
}

// marker closes the core's open group at a software-chosen point (§II-D):
// the next stores open a fresh group, so recovery code can rely on AG
// boundaries coinciding with its own epochs.
func (s *tsoperSys) marker(c *coreUnit) {
	if g := s.trackers[c.id].Peek(); g != nil {
		s.freeze(g, core.FreezeMarker)
	}
}

func (s *tsoperSys) sync(_ *coreUnit, done func()) {
	// TSO persistency needs no persist action at synchronization: ordering
	// is continuous. The store buffer drain (handled by the core) is all a
	// fence requires.
	done()
}

// drain freezes every remaining open group and waits for all groups to
// reach durability.
func (s *tsoperSys) drain(done func()) {
	s.drainDone = done
	for _, tr := range s.trackers {
		if g := tr.Peek(); g != nil {
			s.freeze(g, core.FreezeDrain)
		}
	}
	// Groups that opened but never received a line are frozen empty and
	// drain immediately; the AGB callbacks drive the rest.
	s.checkDrainDone()
}

func (s *tsoperSys) checkDrainDone() {
	if s.drainDone != nil && s.liveCount == 0 {
		cb := s.drainDone
		s.drainDone = nil
		cb()
	}
}
