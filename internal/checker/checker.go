// Package checker validates strict TSO persistency after an injected crash
// (§II's correctness criterion): the recovered NVM image must correspond to
// a TSO-consistent cut of the pre-crash execution. Concretely, the set of
// durable atomic groups must be
//
//  1. atomic — each group's lines are all recovered at its versions or none
//     are (no partial groups);
//  2. prefix-closed per core — a durable group implies every older group of
//     the same core is durable (persist order follows program order);
//  3. closed under persist-before — a durable group implies every group it
//     depends on (read-from, write-after-write, intra-core) is durable;
//  4. per-line FIFO — the recovered version of each line is the newest one
//     written by any durable group, i.e. no durable version is shadowed and
//     no non-durable version leaked.
//
// Together these imply there is a TSO memory-order prefix whose final
// writes are exactly the recovered image.
package checker

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Violation describes a persistency violation found in a crash state.
type Violation struct {
	Rule   string
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("persistency violation (%s): %s", v.Rule, v.Detail)
}

// Check validates a crash state; nil means the image is a TSO-consistent
// cut. Only strict-persistency systems (STW, TSOPER) journal groups; Check
// refuses other systems.
func Check(cs *machine.CrashState) error {
	if cs.System != machine.STW && cs.System != machine.TSOPER {
		return fmt.Errorf("checker: %v does not claim strict TSO persistency", cs.System)
	}
	durable := make(map[uint64]*core.Group, len(cs.DurableOrder))
	for _, g := range cs.Groups {
		if g.State() >= core.Durable {
			durable[g.ID] = g
		}
	}

	if err := checkCorePrefix(cs, durable); err != nil {
		return err
	}
	if err := checkDepClosure(cs, durable); err != nil {
		return err
	}
	if err := checkImage(cs, durable); err != nil {
		return err
	}
	if err := core.CheckAcyclic(cs.Groups); err != nil {
		return &Violation{Rule: "acyclic", Detail: err.Error()}
	}
	return nil
}

// checkCorePrefix: durable groups form a prefix of each core's creation
// order, and therefore the durable stores form a prefix of each core's
// program order.
func checkCorePrefix(cs *machine.CrashState, durable map[uint64]*core.Group) error {
	maxSeq := map[int]uint64{}
	for _, g := range cs.Groups {
		if _, ok := durable[g.ID]; ok && g.Seq > maxSeq[g.Core] {
			maxSeq[g.Core] = g.Seq
		}
	}
	for _, g := range cs.Groups {
		if _, ok := durable[g.ID]; !ok && g.Seq < maxSeq[g.Core] {
			return &Violation{
				Rule: "core-prefix",
				Detail: fmt.Sprintf("%v is not durable but younger group #%d of core %d is",
					g, maxSeq[g.Core], g.Core),
			}
		}
	}
	return nil
}

// checkDepClosure: every persist-before dependency of a durable group is
// itself durable.
func checkDepClosure(cs *machine.CrashState, durable map[uint64]*core.Group) error {
	for _, g := range cs.Groups {
		if _, ok := durable[g.ID]; !ok {
			continue
		}
		for _, dep := range g.DepIDs {
			if _, ok := durable[dep]; !ok {
				return &Violation{
					Rule: "persist-before",
					Detail: fmt.Sprintf("%v is durable but its dependency group %d is not",
						g, dep),
				}
			}
		}
	}
	return nil
}

// checkImage: the recovered version of each line equals the newest durable
// version in durability order (group atomicity + per-line FIFO), and lines
// written only by non-durable groups are absent.
func checkImage(cs *machine.CrashState, durable map[uint64]*core.Group) error {
	expected := make(map[mem.Line]mem.Version, len(cs.Image))
	for _, g := range cs.DurableOrder {
		if _, ok := durable[g.ID]; !ok {
			return &Violation{
				Rule:   "durability-order",
				Detail: fmt.Sprintf("%v appears in durable order but is not durable", g),
			}
		}
		for l, v := range g.DirtyView() {
			expected[l] = v
		}
	}
	// Each pass reports its lowest-addressed bad line, so a state with
	// several bad lines always gets the same Violation.
	if l, ok := lowestBad(expected, func(l mem.Line, want mem.Version) bool { return cs.Image[l] != want }); ok {
		return &Violation{
			Rule:   "atomicity",
			Detail: fmt.Sprintf("line %v recovered as %v, expected %v", l, cs.Image[l], expected[l]),
		}
	}
	if l, ok := lowestBad(cs.Image, func(l mem.Line, got mem.Version) bool {
		_, written := expected[l]
		return !written && !got.IsInitial()
	}); ok {
		return &Violation{
			Rule:   "leak",
			Detail: fmt.Sprintf("line %v holds %v but no durable group wrote it", l, cs.Image[l]),
		}
	}
	// The recovered version must also appear in the line's coherence order
	// (a version that was never serialized cannot be recovered).
	if l, ok := lowestBad(cs.Image, func(l mem.Line, got mem.Version) bool {
		return !slices.Contains(cs.LineOrder[l], got)
	}); ok {
		return &Violation{
			Rule:   "coherence-order",
			Detail: fmt.Sprintf("line %v recovered as %v, never in coherence order", l, cs.Image[l]),
		}
	}
	return nil
}

// lowestBad returns the lowest-addressed line of m that bad flags.
func lowestBad(m map[mem.Line]mem.Version, bad func(mem.Line, mem.Version) bool) (mem.Line, bool) {
	low, found := mem.Line(0), false
	for l, v := range m {
		if (!found || l < low) && bad(l, v) {
			low, found = l, true
		}
	}
	return low, found
}
