// Package core implements the paper's primary contribution: atomic groups
// (AGs) and their persist ordering (§II, §III).
//
// An atomic group collects the locally modified cachelines of one private
// cache between two successive exposures of its modifications to the
// outside world, plus the clean cachelines it read out of other caches'
// unpersisted groups (§III-A read inclusion). A group is frozen on its
// first exposure — a remote read or write of one of its dirty lines, an
// eviction, or reaching the persist-buffer size limit — after which it can
// accept no new lines and no new incoming persist-before dependencies.
//
// A frozen group drains to the Atomic Group Buffer once every one of its
// lines has become the tail of its sharing list (all older versions and
// all read-from producers have persisted) and it is the oldest live group
// of its core. It becomes durable the moment it is fully buffered (the AGB
// is in the persistent domain) and retires when its lines finish writing
// to NVM.
//
// The package is pure bookkeeping — the machine package supplies timing and
// drives the sharing lists; the checker package consumes the Record trail.
package core

import (
	"fmt"

	"repro/internal/mem"
)

// State is the lifecycle phase of an atomic group.
type State uint8

const (
	// Open: accepting stores and read inclusions.
	Open State = iota
	// Frozen: exposed; membership fixed; waiting to become drainable.
	Frozen
	// Draining: lines being buffered into the AGB.
	Draining
	// Durable: fully buffered in the AGB — survives a crash.
	Durable
	// Retired: written through to NVM; AGB space reclaimed.
	Retired
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case Frozen:
		return "frozen"
	case Draining:
		return "draining"
	case Durable:
		return "durable"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// FreezeReason records why a group was frozen (§II-A lists the triggers).
type FreezeReason uint8

const (
	// FreezeNone: the group is still open.
	FreezeNone FreezeReason = iota
	// FreezeRemoteRead: another cache read one of our dirty lines.
	FreezeRemoteRead
	// FreezeRemoteWrite: another cache wrote one of our dirty lines.
	FreezeRemoteWrite
	// FreezeEviction: a dirty line was evicted from the private cache.
	FreezeEviction
	// FreezeDirEviction: a directory entry eviction exposed a dirty line.
	FreezeDirEviction
	// FreezeSizeLimit: the group reached the persist-buffer size limit.
	FreezeSizeLimit
	// FreezeDrain: end-of-run flush.
	FreezeDrain
	// FreezeMarker: a software marker store closed the group (§II-D),
	// aligning AG boundaries with software-defined recovery epochs.
	FreezeMarker
)

func (r FreezeReason) String() string {
	switch r {
	case FreezeNone:
		return "none"
	case FreezeRemoteRead:
		return "remote-read"
	case FreezeRemoteWrite:
		return "remote-write"
	case FreezeEviction:
		return "eviction"
	case FreezeDirEviction:
		return "directory-eviction"
	case FreezeSizeLimit:
		return "size-limit"
	case FreezeDrain:
		return "drain"
	case FreezeMarker:
		return "marker"
	default:
		return fmt.Sprintf("FreezeReason(%d)", uint8(r))
	}
}

// Group is one atomic group.
type Group struct {
	// ID is globally unique across all cores (used by the crash checker).
	ID uint64
	// Core is the owning core / private cache.
	Core int
	// Seq is the core-local creation sequence (the AG_ID of §II-A).
	Seq uint64

	state  State
	reason FreezeReason

	// dirty maps locally modified lines to the newest version this group
	// wrote to them (stores to the same line coalesce).
	dirty map[mem.Line]mem.Version
	// clean holds read-included lines (§III-A): read from a remote group
	// that had not yet persisted. The version is the one observed.
	clean map[mem.Line]mem.Version

	// pendingTail tracks lines whose sharing-list node is not yet the tail;
	// the group cannot drain until this set empties (§IV-B, the
	// waiting-to-become-tail counter).
	pendingTail map[mem.Line]bool

	// deps are incoming persist-before edges: groups that must be durable
	// before this one persists. rdeps are the reverse (outgoing) edges.
	// Satisfied edges are removed; DepIDs keeps the full history for the
	// crash-consistency checker.
	deps   map[*Group]bool
	rdeps  map[*Group]bool
	DepIDs []uint64

	tracker *Tracker

	// onDrainable, set by the machine, fires when the group transitions to
	// being allowed to drain (frozen + all tails + oldest of its core).
	onDrainable func(*Group)
	// notified guards one-shot drainable notification.
	notified bool
}

// State returns the lifecycle state.
func (g *Group) State() State { return g.state }

// Reason returns why the group was frozen.
func (g *Group) Reason() FreezeReason { return g.reason }

// Size returns the number of member lines (dirty + clean).
func (g *Group) Size() int { return len(g.dirty) + len(g.clean) }

// DirtyLen returns the number of locally modified lines.
func (g *Group) DirtyLen() int { return len(g.dirty) }

// HasDirty reports whether the group modified line l.
func (g *Group) HasDirty(l mem.Line) bool { _, ok := g.dirty[l]; return ok }

// Has reports whether line l is a member (dirty or clean).
func (g *Group) Has(l mem.Line) bool {
	if _, ok := g.dirty[l]; ok {
		return true
	}
	_, ok := g.clean[l]
	return ok
}

// VersionOf returns the version this group wrote to l (dirty lines only).
func (g *Group) VersionOf(l mem.Line) (mem.Version, bool) {
	v, ok := g.dirty[l]
	return v, ok
}

// DirtyLines returns the modified lines with their final versions.
func (g *Group) DirtyLines() map[mem.Line]mem.Version {
	out := make(map[mem.Line]mem.Version, len(g.dirty))
	for l, v := range g.dirty {
		out[l] = v
	}
	return out
}

// DirtyView returns the group's dirty-line map without copying. It panics on
// an open group: membership is only stable once frozen, and callers must
// treat the returned map as read-only.
func (g *Group) DirtyView() map[mem.Line]mem.Version {
	if g.state == Open {
		panic(fmt.Sprintf("core: dirty view of open %v", g))
	}
	return g.dirty
}

// Deps returns the incoming persist-before dependencies.
func (g *Group) Deps() []*Group {
	out := make([]*Group, 0, len(g.deps))
	for d := range g.deps {
		out = append(out, d)
	}
	return out
}

func (g *Group) String() string {
	return fmt.Sprintf("AG{core %d #%d %s size %d}", g.Core, g.Seq, g.state, g.Size())
}

// AddStore records a store of version v to line l. atTail tells the group
// whether the line's sharing-list node is currently the tail (no older
// unpersisted versions below it). It panics on a non-open group — the
// machine must never write into a frozen group; that is the stall the
// paper describes in §II-A ("Multiversioning").
func (g *Group) AddStore(l mem.Line, v mem.Version, atTail bool) {
	if g.state != Open {
		panic(fmt.Sprintf("core: store into %v", g))
	}
	if _, wasClean := g.clean[l]; wasClean {
		delete(g.clean, l)
	}
	g.dirty[l] = v
	g.trackTail(l, atTail)
}

// AddCleanRead records a read inclusion (§III-A): the group read line l
// (observing version v) out of a remote group that has not persisted.
// Reads of lines the group already modified are no-ops.
func (g *Group) AddCleanRead(l mem.Line, v mem.Version, atTail bool) {
	if g.state != Open {
		panic(fmt.Sprintf("core: read inclusion into %v", g))
	}
	if _, ok := g.dirty[l]; ok {
		return
	}
	g.clean[l] = v
	g.trackTail(l, atTail)
}

func (g *Group) trackTail(l mem.Line, atTail bool) {
	if atTail {
		delete(g.pendingTail, l)
	} else {
		g.pendingTail[l] = true
	}
}

// LineAtTail informs the group that its node for line l has become the
// sharing-list tail (or left the list entirely). The machine calls this as
// predecessor versions persist; it may make the group drainable.
func (g *Group) LineAtTail(l mem.Line) {
	delete(g.pendingTail, l)
	g.maybeDrainable()
}

// DependOn adds an incoming persist-before edge: dep must persist before g.
// Edges to durable/retired groups are dropped — the dependency is already
// satisfied. Self-edges are ignored.
//
// Two panics enforce §III-C's deadlock-freedom construction structurally:
// the receiving group must still be open (frozen groups accept no new
// incoming dependencies), and the source must already be frozen (a group
// services its first outgoing dependency only after freezing). Together
// they make persist-before cycles unrepresentable.
func (g *Group) DependOn(dep *Group) {
	if dep == g || dep == nil {
		return
	}
	if dep.state >= Durable {
		return
	}
	if dep.state == Open {
		panic(fmt.Sprintf("core: outgoing dependency from open %v", dep))
	}
	if g.state != Open {
		panic(fmt.Sprintf("core: incoming dependency into %v", g))
	}
	if !g.deps[dep] {
		g.deps[dep] = true
		dep.rdeps[g] = true
		g.DepIDs = append(g.DepIDs, dep.ID)
	}
}

// Freeze fixes the group's membership. Freezing an already non-open group
// is a no-op (freezes are idempotent: many readers may expose the same
// group). It returns true if this call performed the freeze.
func (g *Group) Freeze(reason FreezeReason) bool {
	if g.state != Open {
		return false
	}
	g.state = Frozen
	g.reason = reason
	if g.tracker != nil {
		g.tracker.onFreeze(g)
	}
	g.maybeDrainable()
	return true
}

// Drainable reports whether the group may start buffering into the AGB:
// frozen, every line at its list tail, and oldest live group of its core.
func (g *Group) Drainable() bool {
	return g.state == Frozen && len(g.pendingTail) == 0 &&
		(g.tracker == nil || g.tracker.oldestLive() == g)
}

func (g *Group) maybeDrainable() {
	if g.notified || !g.Drainable() {
		return
	}
	g.notified = true
	if g.onDrainable != nil {
		g.onDrainable(g)
	}
}

// StartDrain moves the group to Draining. It panics unless Drainable.
func (g *Group) StartDrain() {
	if !g.Drainable() {
		panic(fmt.Sprintf("core: StartDrain on %v (pending %d)", g, len(g.pendingTail)))
	}
	g.state = Draining
}

// MarkDurable marks the group fully buffered in the persistent domain.
func (g *Group) MarkDurable() {
	if g.state != Draining {
		panic(fmt.Sprintf("core: MarkDurable on %v", g))
	}
	g.state = Durable
	for r := range g.rdeps {
		delete(r.deps, g)
	}
	if g.tracker != nil {
		g.tracker.onDurable(g)
	}
}

// Retire releases the group after its NVM writes complete.
func (g *Group) Retire() {
	if g.state != Durable {
		panic(fmt.Sprintf("core: Retire on %v", g))
	}
	g.state = Retired
}

// InjectState forcibly overwrites the lifecycle state, bypassing every
// transition invariant and side effect (tracker queues, dependency
// satisfaction, drain notification). It exists solely so checker mutation
// testing can fabricate persistency-violating crash states; the simulator
// itself never calls it.
func (g *Group) InjectState(s State) { g.state = s }
