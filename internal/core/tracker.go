package core

import (
	"fmt"

	"repro/internal/mem"
)

// Tracker manages the atomic groups of one private cache: the currently
// open group, the queue of frozen groups awaiting drain, and the per-core
// AG_ID sequence (§II-A). Groups of one core drain in creation order — the
// oldest first — which, combined with FIFO AGB allocation, realizes the
// intra-cache persist-before edges of Fig. 8.
type Tracker struct {
	core   int
	ids    *IDSource
	nextID uint64 // core-local sequence

	open *Group
	// live holds frozen/draining groups in creation order until durable.
	live []*Group

	// MaxLive records the high-water mark of simultaneous live groups,
	// which sizes the AG_ID space (§II-A: "only a few bits are needed").
	MaxLive int

	// OnDrainable is invoked whenever a group becomes eligible to drain.
	OnDrainable func(*Group)
	// OnOpen is invoked when a new group is created.
	OnOpen func(*Group)
}

// IDSource hands out globally unique group IDs across all trackers.
type IDSource struct{ next uint64 }

// NewIDSource starts IDs at 1 (0 is reserved for "no group").
func NewIDSource() *IDSource { return &IDSource{next: 1} }

func (s *IDSource) take() uint64 {
	id := s.next
	s.next++
	return id
}

// NewTracker creates the group tracker for one core.
func NewTracker(core int, ids *IDSource) *Tracker {
	return &Tracker{core: core, ids: ids}
}

// Core returns the owning core.
func (t *Tracker) Core() int { return t.core }

// Open returns the currently open group, creating one if needed.
func (t *Tracker) Open() *Group {
	if t.open == nil {
		t.nextID++
		g := &Group{
			ID:          t.ids.take(),
			Core:        t.core,
			Seq:         t.nextID,
			state:       Open,
			dirty:       make(map[mem.Line]mem.Version),
			clean:       make(map[mem.Line]mem.Version),
			pendingTail: make(map[mem.Line]bool),
			deps:        make(map[*Group]bool),
			rdeps:       make(map[*Group]bool),
			tracker:     t,
		}
		g.onDrainable = func(gg *Group) {
			if t.OnDrainable != nil {
				t.OnDrainable(gg)
			}
		}
		// Intra-cache order (Fig. 8): the new group persists after the
		// youngest earlier group of this core.
		if n := len(t.live); n > 0 {
			g.DependOn(t.live[n-1])
		}
		t.open = g
		t.live = append(t.live, g)
		if len(t.live) > t.MaxLive {
			t.MaxLive = len(t.live)
		}
		if t.OnOpen != nil {
			t.OnOpen(g)
		}
	}
	return t.open
}

// Peek returns the open group without creating one (nil if none).
func (t *Tracker) Peek() *Group { return t.open }

// Live returns the number of not-yet-durable groups.
func (t *Tracker) Live() int { return len(t.live) }

// FrozenHolder returns the non-open live group containing line l as a dirty
// member, if any — the group a store to l must wait for (§II-A: a store
// into a frozen group's line blocks until that group persists).
func (t *Tracker) FrozenHolder(l mem.Line) *Group {
	for _, g := range t.live {
		if g == t.open {
			continue
		}
		if g.HasDirty(l) {
			return g
		}
	}
	return nil
}

// LineCleared informs every live group that this cache's sharing-list node
// for line l is clear (or gone): any group waiting on the line may count it
// tail-satisfied. The predicate is per (cache, line) and monotone, so
// notifying all groups is sound and idempotent.
func (t *Tracker) LineCleared(l mem.Line) {
	for _, g := range t.live {
		g.LineAtTail(l)
	}
}

// onFreeze detaches the open pointer when the open group freezes.
func (t *Tracker) onFreeze(g *Group) {
	if t.open == g {
		t.open = nil
	}
	// Freezing the youngest group may unblock older drain decisions only
	// via tails; nothing else to do here.
}

// oldestLive reports the drain-eligibility anchor for g: g may drain when
// every older live group of the core has at least started draining, so AGB
// allocation order preserves creation order per core.
func (t *Tracker) oldestLive() *Group {
	for _, g := range t.live {
		if g.state < Draining {
			return g
		}
	}
	return nil
}

// onDurable removes g from the live queue and re-evaluates successors.
func (t *Tracker) onDurable(g *Group) {
	for i, x := range t.live {
		if x == g {
			t.live = append(t.live[:i], t.live[i+1:]...)
			break
		}
	}
	if next := t.oldestLive(); next != nil {
		next.maybeDrainable()
	}
}

// CheckInvariants validates the tracker's structural invariants.
func (t *Tracker) CheckInvariants() error {
	var prevSeq uint64
	sawNonDrain := false
	for i, g := range t.live {
		if g.Core != t.core {
			return fmt.Errorf("core %d: foreign group %v in live queue", t.core, g)
		}
		if g.Seq <= prevSeq {
			return fmt.Errorf("core %d: live queue out of order at %d", t.core, i)
		}
		prevSeq = g.Seq
		if g.state >= Durable {
			return fmt.Errorf("core %d: durable group %v still live", t.core, g)
		}
		// Draining groups must form a prefix of the live queue.
		if g.state < Draining {
			sawNonDrain = true
		} else if sawNonDrain {
			return fmt.Errorf("core %d: draining group %v behind non-draining one", t.core, g)
		}
		if g == t.open && g.state != Open {
			return fmt.Errorf("core %d: open pointer at non-open group %v", t.core, g)
		}
	}
	if t.open != nil && t.open.state != Open {
		return fmt.Errorf("core %d: open pointer stale", t.core)
	}
	return nil
}

// CheckAcyclic verifies the persist-before graph over the given groups has
// no cycle (§III-C guarantees this by construction; the checker and the
// property tests verify it).
func CheckAcyclic(groups []*Group) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Group]int, len(groups))
	var visit func(g *Group) error
	visit = func(g *Group) error {
		switch color[g] {
		case gray:
			return fmt.Errorf("core: persist-before cycle through %v", g)
		case black:
			return nil
		}
		color[g] = gray
		for d := range g.deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[g] = black
		return nil
	}
	for _, g := range groups {
		if err := visit(g); err != nil {
			return err
		}
	}
	return nil
}
