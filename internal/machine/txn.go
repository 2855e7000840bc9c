package machine

import (
	"repro/internal/coherence/slc"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Pooled coherence transactions. An in-order core has at most one read and
// one write transaction in flight at a time (loads block the core; the store
// buffer drains serially), so each core owns one readTxn and one writeTxn
// whose stage continuations are bound once at construction. Steady-state
// misses then allocate nothing: the stages below are the exact event
// sequence the former per-transaction closures scheduled, in the same order
// at the same cycles.

// readTxn is a core's GetS miss in flight (protocol.go readTransaction).
type readTxn struct {
	m    *Machine
	c    *coreUnit
	line mem.Line
	done func()

	src, bnode, owner int
	extra             sim.Time
	dataReady         sim.Time
	node              *slc.Node

	dirFn, fwdFn, memFn, afterFn, retryFn func()
}

func newReadTxn(m *Machine, c *coreUnit) *readTxn {
	t := &readTxn{m: m, c: c}
	t.dirFn = t.dir
	t.fwdFn = t.fwd
	t.memFn = t.fromMem
	t.afterFn = t.after
	t.retryFn = func() { t.m.load(t.c, t.line, t.done) }
	return t
}

// start issues the request to the line's home bank.
func (t *readTxn) start() {
	m := t.m
	t.src = m.coreNode(t.c.id)
	bank := m.bankOf(t.line)
	t.bnode = m.bankNode(bank)
	reqArrive := m.net.Send(t.src, t.bnode, nil)
	begin := m.banks.Claim(bank, reqArrive, m.cfg.BankOccupancy)
	m.engine.At(begin+m.cfg.LLCLatency, t.dirFn)
}

// dir is the directory-serialization instant: all protocol state mutates
// here; the remaining stages only decide when the core resumes.
func (t *readTxn) dir() {
	m, c, line := t.m, t.c, t.line
	lst := m.dir.List(line)
	vd := lst.DirtyNewest()
	if vd != nil && !vd.Valid {
		// The producing version is invalid-pending; the newest valid
		// data is in the LLC (it was written back at invalidation).
		vd = nil
	}
	t.extra = 0
	if vd != nil {
		t.extra = m.sys.exposed(vd, false)
		// Downgrade writeback: the LLC is kept current (§II-B).
		m.llcFill(line, vd.Version)
		m.coherenceWrites.Inc()
	}
	// The reader observes the newest coherent version: the tail of the
	// line's store log (the zero version for a line never stored).
	var observed mem.Version
	if vs := m.lineOrder[line]; len(vs) > 0 {
		observed = vs[len(vs)-1]
	}
	t.node = lst.AddHead(c.id, true, false, observed, 0)
	if m.tardis != nil {
		m.tardis.Read(c.id, line)
	}
	if vd != nil {
		// Read of an unpersisted version: include the line in the
		// reader's group and record the dependency (§III-A).
		m.sys.loadObservedDirty(c, t.node, vd)
	}
	m.dir.Sample(lst)

	switch {
	case vd != nil:
		// Forward: bank -> owner -> requester.
		t.owner = m.coreNode(vd.Cache)
		fwdArrive := m.net.Send(t.bnode, t.owner, nil)
		m.engine.At(fwdArrive+m.cfg.PrivHit+t.extra, t.fwdFn)
	case m.llc.Lookup(line) != nil:
		arrive := m.net.Send(t.bnode, t.src, nil)
		t.finish(arrive + t.extra)
	default:
		if m.buffer.Buffered(line) {
			// AGB search under the LLC-miss shadow (§II-B): the line
			// was evicted from the LLC but a newer version still sits
			// in the persist buffer; serve it at buffer latency.
			m.set.Counter("agb.search_hits").Inc()
			arrive := m.net.Send(t.bnode, t.src, nil)
			t.finish(arrive + m.cfg.AGB.TransferLatency + t.extra)
			return
		}
		memDone := m.memory.Read(line, nil)
		m.llcFill(line, observed)
		m.engine.At(memDone, t.memFn)
	}
}

// fwd runs at the owner: data hops owner -> requester.
func (t *readTxn) fwd() {
	arrive := t.m.net.Send(t.owner, t.src, nil)
	t.finish(arrive)
}

// fromMem runs when NVM has the data: bank -> requester.
func (t *readTxn) fromMem() {
	arrive := t.m.net.Send(t.bnode, t.src, nil)
	t.finish(arrive + t.extra)
}

// finish secures the private-cache frame, then resumes the core once both
// the frame and the data are ready.
func (t *readTxn) finish(dataReady sim.Time) {
	t.dataReady = dataReady
	t.m.insertFrame(t.c.id, t.line, t.node, t.afterFn)
}

func (t *readTxn) after() {
	t.m.engine.At(maxTime(t.dataReady, t.m.engine.Now()), t.done)
}

// writeTxn is a core's retiring store in flight (protocol.go store /
// writeTransaction): the persistency gate, then a GetX miss or upgrade.
type writeTxn struct {
	m       *Machine
	c       *coreUnit
	line    mem.Line
	ver     mem.Version
	upgrade *slc.Node
	done    func()

	src, bnode, owner int
	walk, extra       sim.Time
	dataReady         sim.Time
	node              *slc.Node

	attemptFn, dirFn, fwdFn, memFn, afterFn, retryFn func()
}

func newWriteTxn(m *Machine, c *coreUnit) *writeTxn {
	t := &writeTxn{m: m, c: c}
	t.attemptFn = t.attempt
	t.dirFn = t.dir
	t.fwdFn = t.fwd
	t.memFn = t.fromMem
	t.afterFn = t.after
	t.retryFn = func() { t.m.store(t.c, t.line, t.ver, t.done) }
	return t
}

// attempt runs once the system's store gate opens.
func (t *writeTxn) attempt() {
	m, c, line := t.m, t.c, t.line
	node := m.nodeOf(c.id, line)
	if node != nil {
		if !node.Valid {
			m.waitLineFree(c.id, line, t.retryFn)
			return
		}
		if node.Dirty {
			// Write hit on our own dirty copy: coalesce in place. The
			// gate guaranteed the owning group is still open.
			m.priv[c.id].arr.Lookup(line)
			m.dir.List(line).MarkDirty(node, t.ver)
			m.recordStore(line, t.ver)
			if m.tardis != nil {
				m.tardis.Coalesce(c.id, line)
			}
			m.sys.storeCommitted(c, node, nil)
			m.engine.Schedule(m.cfg.PrivHit, t.done)
			return
		}
		// Clean valid copy: upgrade (invalidation round, no data fetch).
		t.start(node)
		return
	}
	t.start(nil)
}

// start issues the GetX (or upgrade) to the line's home bank.
func (t *writeTxn) start(upgrade *slc.Node) {
	m := t.m
	t.upgrade = upgrade
	t.src = m.coreNode(t.c.id)
	bank := m.bankOf(t.line)
	t.bnode = m.bankNode(bank)
	reqArrive := m.net.Send(t.src, t.bnode, nil)
	begin := m.banks.Claim(bank, reqArrive, m.cfg.BankOccupancy)
	m.engine.At(begin+m.cfg.LLCLatency, t.dirFn)
}

// dir is the directory-serialization instant of the write.
func (t *writeTxn) dir() {
	m, c, line, ver, upgrade := t.m, t.c, t.line, t.ver, t.upgrade
	lst := m.dir.List(line)
	if upgrade != nil && (!upgrade.Valid || upgrade.Dirty) {
		// Our copy changed while the upgrade was in flight (another
		// writer invalidated it): restart as a full miss.
		m.store(c, line, ver, t.done)
		return
	}
	vd := lst.DirtyNewest()
	if vd != nil && !vd.Valid {
		vd = nil
	}
	t.extra = 0
	needData := upgrade == nil
	llcHit := m.llc.Lookup(line) != nil
	if vd != nil {
		t.extra = m.sys.exposed(vd, true)
		m.llcFill(line, vd.Version)
		m.coherenceWrites.Inc()
	}

	// Serial invalidation walk over the remaining valid copies.
	nInval := 0
	destructive := m.sys.destructive(line)
	m.vnScratch = lst.ValidInto(m.vnScratch[:0])
	for _, n := range m.vnScratch {
		if n.Cache == c.id {
			continue
		}
		nInval++
		if destructive {
			if n.Dirty {
				m.llcFill(line, n.Version)
			}
			m.applyUpdate(lst.RemoveDestructive(n))
		} else {
			m.applyUpdate(lst.Invalidate(n))
		}
	}
	m.invalWalks.Observe(uint64(nInval))
	t.walk = m.invalDelay(nInval)

	// Install the new version at the head of the list.
	if upgrade != nil {
		m.applyUpdate(lst.MoveToHead(upgrade))
		lst.MarkDirty(upgrade, ver)
		t.node = upgrade
	} else {
		t.node = lst.AddHead(c.id, true, true, ver, 0)
	}
	m.recordStore(line, ver)
	if m.tardis != nil {
		m.tardis.Write(c.id, line)
	}
	m.sys.storeCommitted(c, t.node, vd)
	m.dir.Sample(lst)

	switch {
	case !needData:
		arrive := m.net.Send(t.bnode, t.src, nil)
		t.finish(arrive + t.walk + t.extra)
	case vd != nil:
		t.owner = m.coreNode(vd.Cache)
		fwdArrive := m.net.Send(t.bnode, t.owner, nil)
		m.engine.At(fwdArrive+m.cfg.PrivHit+t.extra, t.fwdFn)
	case llcHit:
		arrive := m.net.Send(t.bnode, t.src, nil)
		t.finish(arrive + t.walk + t.extra)
	default:
		memDone := m.memory.Read(line, nil)
		m.llcFill(line, ver)
		m.engine.At(memDone, t.memFn)
	}
}

func (t *writeTxn) fwd() {
	arrive := t.m.net.Send(t.owner, t.src, nil)
	t.finish(arrive + t.walk)
}

func (t *writeTxn) fromMem() {
	arrive := t.m.net.Send(t.bnode, t.src, nil)
	t.finish(arrive + t.walk + t.extra)
}

func (t *writeTxn) finish(dataReady sim.Time) {
	t.dataReady = dataReady
	t.m.insertFrame(t.c.id, t.line, t.node, t.afterFn)
}

func (t *writeTxn) after() {
	t.m.engine.At(maxTime(t.dataReady, t.m.engine.Now()), t.done)
}
