package machine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/mem"
)

// CrashFault selects a deliberate persistency corruption applied to the
// recovered crash state. Each fault models a concrete hardware bug the
// paper's design rules out by construction — a torn atomic group, a
// persist-order skip, a leaked speculative version — and is engineered to
// trip exactly one of the checker's rules. The crashmc package uses these
// for mutation testing: a checker that fails to reject every fault is
// vacuously green and proves nothing.
type CrashFault uint8

const (
	// FaultNone injects nothing.
	FaultNone CrashFault = iota
	// FaultTornGroup drops one line of a durable atomic group from the
	// recovered image: a partial (non-atomic) group persist.
	FaultTornGroup
	// FaultUndurablePrefix demotes a durable group that has a younger
	// durable sibling on the same core: persist order skipped a group,
	// breaking per-core prefix closure.
	FaultUndurablePrefix
	// FaultSkipDep records that a durable group should have waited for a
	// still-undurable group: a skipped persist-before edge.
	FaultSkipDep
	// FaultLeakFrozen leaks a frozen-but-undurable group's version into
	// the image: a write that never gained a durability guarantee was
	// recovered.
	FaultLeakFrozen
	// FaultReorderDurable recovers an older durable version over the
	// newest one: same-address FIFO violated during replay.
	FaultReorderDurable
	// FaultPhantomVersion erases the recovered version of a line from the
	// coherence serialization: recovery produced a version the directory
	// never ordered.
	FaultPhantomVersion
	// FaultAlienDurable appends a non-durable group to the durable order:
	// the AGB's durability frontier advanced past an incomplete group.
	FaultAlienDurable
)

func (f CrashFault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultTornGroup:
		return "torn-group"
	case FaultUndurablePrefix:
		return "undurable-prefix"
	case FaultSkipDep:
		return "skip-dep"
	case FaultLeakFrozen:
		return "leak-frozen"
	case FaultReorderDurable:
		return "reorder-durable"
	case FaultPhantomVersion:
		return "phantom-version"
	case FaultAlienDurable:
		return "alien-durable"
	default:
		return fmt.Sprintf("CrashFault(%d)", uint8(f))
	}
}

// ExpectedRule returns the checker rule the fault is engineered to trip
// ("" for FaultNone). The mapping accounts for the checker's rule order:
// states are validated before dependency closure, which is validated before
// the image.
func (f CrashFault) ExpectedRule() string {
	switch f {
	case FaultTornGroup, FaultReorderDurable:
		return "atomicity"
	case FaultUndurablePrefix:
		return "core-prefix"
	case FaultSkipDep:
		return "persist-before"
	case FaultLeakFrozen:
		return "leak"
	case FaultPhantomVersion:
		return "coherence-order"
	case FaultAlienDurable:
		return "durability-order"
	default:
		return ""
	}
}

// Faults lists every injectable fault (FaultNone excluded).
func Faults() []CrashFault {
	return []CrashFault{
		FaultTornGroup, FaultUndurablePrefix, FaultSkipDep,
		FaultLeakFrozen, FaultReorderDurable, FaultPhantomVersion,
		FaultAlienDurable,
	}
}

// ParseCrashFault resolves a fault by its String name.
func ParseCrashFault(name string) (CrashFault, bool) {
	if name == FaultNone.String() {
		return FaultNone, true
	}
	for _, f := range Faults() {
		if f.String() == name {
			return f, true
		}
	}
	return FaultNone, false
}

// InjectFault corrupts cs in place and reports whether the state offered a
// target for the fault (a crash early enough to have no durable groups, for
// example, has nothing to tear). Injection is deterministic: the same crash
// state and fault always corrupt the same way.
func InjectFault(cs *CrashState, f CrashFault) bool {
	switch f {
	case FaultNone:
		return true

	case FaultTornGroup:
		// Tear the newest durable group that wrote lines: no later durable
		// group shadows its writes, so the dropped line's expected version
		// is exactly this group's.
		for i := len(cs.DurableOrder) - 1; i >= 0; i-- {
			if g := cs.DurableOrder[i]; g.DirtyLen() > 0 {
				delete(cs.Image, minDirtyLine(g))
				return true
			}
		}
		return false

	case FaultUndurablePrefix:
		for _, g := range cs.Groups {
			if g.State() < core.Durable {
				continue
			}
			for _, y := range cs.Groups {
				if y.Core == g.Core && y.Seq > g.Seq && y.State() >= core.Durable {
					own(cs, g).InjectState(core.Frozen)
					return true
				}
			}
		}
		return false

	case FaultSkipDep:
		var skipped *core.Group
		for _, g := range cs.Groups {
			if g.State() < core.Durable {
				skipped = g
				break
			}
		}
		if skipped == nil {
			return false
		}
		for _, g := range cs.Groups {
			if g.State() >= core.Durable {
				c := own(cs, g)
				c.DepIDs = append(c.DepIDs, skipped.ID)
				return true
			}
		}
		return false

	case FaultLeakFrozen:
		durableWrote := map[mem.Line]bool{}
		for _, g := range cs.DurableOrder {
			for l := range g.DirtyLines() {
				durableWrote[l] = true
			}
		}
		for _, g := range cs.Groups {
			if st := g.State(); st != core.Frozen && st != core.Draining {
				continue
			}
			for _, l := range sortedDirtyLines(g) {
				if !durableWrote[l] {
					v, _ := g.VersionOf(l)
					cs.Image[l] = v
					return true
				}
			}
		}
		return false

	case FaultReorderDurable:
		// Recover the oldest durable version of a line two durable groups
		// wrote: the newest durable write is shadowed, as if durable-order
		// replay ran backwards.
		first := map[mem.Line]mem.Version{}
		var lines []mem.Line
		for _, g := range cs.DurableOrder {
			for l, v := range g.DirtyLines() {
				if old, ok := first[l]; !ok {
					first[l] = v
				} else if old != v {
					lines = append(lines, l)
				}
			}
		}
		if len(lines) == 0 {
			return false
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		cs.Image[lines[0]] = first[lines[0]]
		return true

	case FaultPhantomVersion:
		var lines []mem.Line
		for l := range cs.Image {
			lines = append(lines, l)
		}
		if len(lines) == 0 {
			return false
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		// A recovered version can legitimately be absent from the coherence
		// serialization (an initial-contents line the run never wrote), so
		// scan for the first line whose version the directory did order
		// instead of giving up on the lowest-addressed one.
		for _, l := range lines {
			got := cs.Image[l]
			order := cs.LineOrder[l]
			for i, v := range order {
				if v == got {
					cs.LineOrder[l] = append(order[:i:i], order[i+1:]...)
					return true
				}
			}
		}
		return false

	case FaultAlienDurable:
		for _, g := range cs.Groups {
			if g.State() < core.Durable {
				cs.DurableOrder = append(cs.DurableOrder, g)
				return true
			}
		}
		return false
	}
	return false
}

// own swaps a private copy of g into cs.Groups and cs.DurableOrder and
// returns it, for a fault about to corrupt g: a capture shares its retired
// groups with the machine and with other captures. Both slices are copied
// first, because RunWithCrash's state aliases the live journal.
func own(cs *CrashState, g *core.Group) *core.Group {
	c := g.Copy()
	cs.Groups = swapGroup(cs.Groups, g, c)
	cs.DurableOrder = swapGroup(cs.DurableOrder, g, c)
	return c
}

func swapGroup(gs []*core.Group, from, to *core.Group) []*core.Group {
	out := slices.Clone(gs)
	for i, g := range out {
		if g == from {
			out[i] = to
		}
	}
	return out
}

func minDirtyLine(g *core.Group) mem.Line {
	lines := sortedDirtyLines(g)
	return lines[0]
}

func sortedDirtyLines(g *core.Group) []mem.Line {
	lines := make([]mem.Line, 0, g.DirtyLen())
	for l := range g.DirtyLines() {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}
