package machine

import (
	"repro/internal/coherence/slc"
	"repro/internal/mem"
	"repro/internal/sim"
)

// This file implements the coherence transaction paths. All protocol and
// persistency state mutates atomically at the directory-serialization
// instant (the home LLC bank's access event); the latencies computed there
// only delay when the requesting core resumes. The single-threaded event
// engine makes the serialization order identical to the event order, so no
// transient protocol races need modeling — matching the role the directory
// plays in the real protocol, where it orders all operations per line.

// nodeOf returns cacheID's sharing-list node for line, if any.
func (m *Machine) nodeOf(cacheID int, line mem.Line) *slc.Node {
	if lst := m.dir.Peek(line); lst != nil {
		return lst.NodeOf(cacheID)
	}
	return nil
}

// load services a core's load. done runs when the value is available. A
// miss runs on the core's pooled readTxn (txn.go) — cores block on loads,
// so at most one is in flight per core.
func (m *Machine) load(c *coreUnit, line mem.Line, done func()) {
	node := m.nodeOf(c.id, line)
	if node != nil && node.Valid {
		// Private hit (cache frame or eviction buffer, same latency); a
		// frame's recency is touched.
		m.priv[c.id].arr.Lookup(line)
		if m.tardis != nil && !node.Dirty && m.tardis.NeedsRenewal(c.id, line) {
			// Tardis lease expiry: the clean copy is valid but logically
			// stale — a renewal round trip to the home bank re-extends the
			// lease before the hit is served (the cost the timestamp
			// protocol pays instead of invalidation traffic). The owner
			// reads its exclusive dirty copy freely (pts == wts).
			t := c.rn
			t.line, t.done = line, done
			t.start()
			return
		}
		m.engine.Schedule(m.cfg.PrivHit, done)
		return
	}
	t := c.rd
	t.line, t.done = line, done
	if node != nil {
		// Invalid copy pending persist: the frame is unusable until the
		// version leaves for the persistent domain (§II-A multiversioning).
		m.waitLineFree(c.id, line, t.retryFn)
		return
	}
	t.start()
}

// store retires one store-buffer entry. done runs when the store has
// committed to the private cache (TSO: the store buffer may then pop it).
// It runs on the core's pooled writeTxn (txn.go) — the store buffer drains
// serially, so at most one is in flight per core.
func (m *Machine) store(c *coreUnit, line mem.Line, ver mem.Version, done func()) {
	t := c.wr
	t.line, t.ver, t.done = line, ver, done
	m.sys.gateStore(c, line, t.attemptFn)
}

// recordStore logs the directory-serialized version order per line: the
// coherence order the crash checker validates against, whose last entry is
// the line's newest coherent version.
func (m *Machine) recordStore(line mem.Line, ver mem.Version) {
	s, ok := m.lineOrder[line]
	if !ok {
		// Carve the per-line log's initial capacity from a shared slab: most
		// lines never outgrow it, so this collapses one allocation per touched
		// line into one per 256 lines. A log that does outgrow its 16 slots
		// escapes to the heap via append's usual doubling.
		if len(m.verSlab) < verLogCap {
			m.verSlab = make([]mem.Version, verChunk*verLogCap)
		}
		s = m.verSlab[0:0:verLogCap]
		m.verSlab = m.verSlab[verLogCap:]
	}
	m.lineOrder[line] = append(s, ver)
}

// llcFill installs or refreshes a line in the LLC. The directory lives with
// the LLC banks, so an LLC eviction is also a directory eviction (§III-B):
// if the victim line has an unpersisted dirty copy, its group freezes and
// persists; the line's data survives in the private caches / AGB, and
// correctness is version-tracked independently of LLC residency.
func (m *Machine) llcFill(line mem.Line, ver mem.Version) {
	if e := m.llc.Peek(line); e != nil {
		e.Data = ver
		return
	}
	_, victim := m.llc.Insert(line, ver)
	if victim == nil {
		return
	}
	if lst := m.dir.Peek(victim.Line); lst != nil {
		if vd := lst.DirtyNewest(); vd != nil {
			m.set.Counter("dir.evictions").Inc()
			m.sys.dirEvicted(vd)
		}
	}
}

// insertFrame secures a private-cache frame for node, relocating or
// dropping a victim first. If the victim must be retained for persistency
// (dirty, or invalid-pending) and the eviction buffer is full, the fill
// stalls until space frees (§III-B).
func (m *Machine) insertFrame(cacheID int, line mem.Line, node *slc.Node, then func()) {
	pc := m.priv[cacheID]
	if !node.OnList() {
		// The node resolved (e.g. persisted and collapsed) before the fill
		// completed; no frame needed.
		then()
		return
	}
	if e := pc.arr.Peek(line); e != nil {
		// Frame already present (e.g. re-dirtying an existing copy).
		e.Data = node
		then()
		return
	}
	if v := pc.arr.Victim(line); v != nil {
		vnode := v.Data
		if m.sys.destructive(v.Line) {
			// Conventional protocols: dirty victims write back and leave
			// the list; persistency reacts via the eviction hook (HW-RP's
			// spontaneous persist, BSP's epoch flush).
			if vnode.Dirty && vnode.Valid {
				m.llcFill(v.Line, vnode.Version)
				m.coherenceWrites.Inc()
				m.sys.evictedDirty(vnode)
			}
			pc.arr.Remove(v.Line)
			m.applyUpdate(m.dir.List(v.Line).RemoveDestructive(vnode))
		} else if vnode.Dirty || !vnode.Valid {
			// Must be retained until persisted: move to eviction buffer.
			if !pc.evbuf.Put(v.Line, vnode) {
				m.evbufWait(cacheID, func() { m.insertFrame(cacheID, line, node, then) })
				return
			}
			m.evbufSample(cacheID)
			pc.arr.Remove(v.Line)
			if vnode.Dirty && vnode.Valid {
				// Exposing a dirty line to the LLC: writeback + the
				// system's eviction persist policy (§II-A trigger 1).
				m.llcFill(v.Line, vnode.Version)
				m.coherenceWrites.Inc()
				m.sys.evictedDirty(vnode)
			}
		} else {
			// Clean valid: silent drop, leave the sharing list.
			pc.arr.Remove(v.Line)
			m.applyUpdate(m.dir.List(v.Line).RemoveClean(vnode))
		}
	}
	pc.arr.Insert(line, node)
	then()
}

// evbufWait parks a continuation until cacheID's eviction buffer releases
// an entry.
func (m *Machine) evbufWait(cacheID int, fn func()) {
	m.evbufWaiters[cacheID] = append(m.evbufWaiters[cacheID], fn)
}

// evbufReleased wakes eviction-buffer waiters for cacheID.
func (m *Machine) evbufReleased(cacheID int) {
	m.emit(Event{Kind: EvEvictDrain, Core: cacheID})
	m.evbufSample(cacheID)
	ws := m.evbufWaiters[cacheID]
	if len(ws) == 0 {
		return
	}
	m.evbufWaiters[cacheID] = nil
	for _, fn := range ws {
		fn := fn
		m.engine.Schedule(0, fn)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
