package core

import (
	"maps"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// Next returns the next ID the source will hand out.
func (s *IDSource) Next() uint64 { return s.next }

// Source returns the tracker's shared group-ID source.
func (t *Tracker) Source() *IDSource { return t.ids }

// EncodeState writes one group's full logical state: identity, lifecycle,
// membership (sorted by line), the waiting-to-become-tail set, and the
// persist-before edges (live ones as sorted IDs, plus the full DepIDs
// history in insertion order).
func (g *Group) EncodeState(w *ckpt.Writer) {
	w.U64(g.ID)
	w.Int(g.Core)
	w.U64(g.Seq)
	w.U8(uint8(g.state))
	w.U8(uint8(g.reason))
	w.Bool(g.notified)
	encodeLineVersions(w, g.dirty)
	encodeLineVersions(w, g.clean)
	lines := make([]uint64, 0, len(g.pendingTail))
	for l := range g.pendingTail {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		w.U64(l)
	}
	encodeEdgeIDs(w, g.deps)
	encodeEdgeIDs(w, g.rdeps)
	w.U32(uint32(len(g.DepIDs)))
	for _, id := range g.DepIDs {
		w.U64(id)
	}
}

func encodeLineVersions(w *ckpt.Writer, m map[mem.Line]mem.Version) {
	lines := make([]uint64, 0, len(m))
	for l := range m {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		v := m[mem.Line(l)]
		w.U64(l)
		w.Int(v.Core)
		w.U64(v.Seq)
	}
}

func encodeEdgeIDs(w *ckpt.Writer, edges map[*Group]bool) {
	ids := make([]uint64, 0, len(edges))
	for g := range edges {
		ids = append(ids, g.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U64(id)
	}
}

// EncodeState writes the tracker's scheduling state: the core-local
// sequence, the open group (by ID; 0 = none), the live queue in creation
// order, and the high-water mark.
func (t *Tracker) EncodeState(w *ckpt.Writer) {
	w.Int(t.core)
	w.U64(t.nextID)
	if t.open != nil {
		w.U64(t.open.ID)
	} else {
		w.U64(0)
	}
	w.U32(uint32(len(t.live)))
	for _, g := range t.live {
		w.U64(g.ID)
	}
	w.Int(t.MaxLive)
}

// Copy returns an inert copy of g with its own membership maps and DepIDs
// history: no tracker or drain callback, and persist-before edges still
// naming the same peer groups. A caller about to mutate a group that other
// snapshots may share (fault injection) copies it first.
func (g *Group) Copy() *Group {
	c := &Group{
		ID:          g.ID,
		Core:        g.Core,
		Seq:         g.Seq,
		state:       g.state,
		reason:      g.reason,
		notified:    g.notified,
		dirty:       maps.Clone(g.dirty),
		clean:       maps.Clone(g.clean),
		pendingTail: maps.Clone(g.pendingTail),
		deps:        maps.Clone(g.deps),
		rdeps:       maps.Clone(g.rdeps),
	}
	if len(g.DepIDs) > 0 {
		c.DepIDs = append([]uint64(nil), g.DepIDs...)
	}
	return c
}

// CloneGroups snapshots a group journal plus a durability-order view of it,
// preserving pointer identity between the two (an entry of durable is
// always an entry of journal). Retired is terminal and the simulator never
// changes a retired group again, so the snapshot shares retired groups with
// the journal by pointer. Every other group is copied (Copy, with edges
// remapped onto the copies), which keeps the machine's later changes out of
// the snapshot. A caller that mutates a snapshot group must Copy it first,
// since it may be shared.
func CloneGroups(journal, durable []*Group) ([]*Group, []*Group) {
	ident := make(map[*Group]*Group)
	js := make([]*Group, len(journal))
	for i, g := range journal {
		if g.state == Retired {
			js[i] = g
			continue
		}
		c := g.Copy()
		ident[g] = c
		js[i] = c
	}
	remap := func(g *Group) *Group {
		if c, ok := ident[g]; ok {
			return c
		}
		return g
	}
	// Second pass: remap live dependency edges onto the copies.
	for _, c := range ident {
		c.deps = remapEdges(c.deps, remap)
		c.rdeps = remapEdges(c.rdeps, remap)
	}
	ds := make([]*Group, len(durable))
	for i, g := range durable {
		ds[i] = remap(g)
	}
	return js, ds
}

func remapEdges(edges map[*Group]bool, remap func(*Group) *Group) map[*Group]bool {
	out := make(map[*Group]bool, len(edges))
	for g := range edges {
		out[remap(g)] = true
	}
	return out
}
