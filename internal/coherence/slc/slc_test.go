package slc

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

func v(core int, seq uint64) mem.Version { return mem.Version{Core: core, Seq: seq} }

func mustOK(t *testing.T, l *List) {
	t.Helper()
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddHeadOrder(t *testing.T) {
	l := NewList(mem.Line(1))
	n0 := l.AddHead(0, true, true, v(0, 1), 1)
	n1 := l.AddHead(1, true, false, v(0, 1), 2)
	mustOK(t, l)
	if l.Head() != n1 || l.Tail() != n0 {
		t.Fatal("head/tail wrong after two adds")
	}
	if n1.Next() != n0 || n0.Prev() != n1 {
		t.Fatal("links wrong")
	}
	if l.Len() != 2 {
		t.Fatalf("len=%d", l.Len())
	}
	if !n0.Clear() || n1.Clear() {
		t.Fatal("clear predicate wrong: only the bottom dirty node is clear")
	}
}

func TestOneNodePerCache(t *testing.T) {
	l := NewList(mem.Line(1))
	l.AddHead(3, true, false, v(0, 0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate cache insert did not panic")
		}
	}()
	l.AddHead(3, true, false, v(0, 0), 0)
}

// Writer chain: three writers of the same line queue up; persists must go
// oldest-first (the paper's single-address TSO guarantee).
func TestWriterChainPersistOrder(t *testing.T) {
	l := NewList(mem.Line(7))
	w0 := l.AddHead(0, true, true, v(0, 1), 1)
	l.Invalidate(w0)
	w1 := l.AddHead(1, true, true, v(1, 1), 2)
	l.Invalidate(w1)
	w2 := l.AddHead(2, true, true, v(2, 1), 3)
	mustOK(t, l)

	if !w0.OnList() || w0.Valid {
		t.Fatal("w0 must remain linked but invalid")
	}
	if got := l.PendingPersists(); got != 3 {
		t.Fatalf("pending=%d", got)
	}
	if !w0.Clear() || w1.Clear() || w2.Clear() {
		t.Fatal("only oldest writer should be clear")
	}
	// Persisting out of order must panic.
	func() {
		defer func() { _ = recover() }()
		l.MarkPersisted(w1)
		t.Fatal("persisting non-clear node did not panic")
	}()
	up := l.MarkPersisted(w0)
	if len(up.Removed) != 1 || up.Removed[0] != w0 || l.Tail() != w1 {
		t.Fatal("w0 should unlink, making w1 the tail")
	}
	if len(up.NewlyClear) != 1 || up.NewlyClear[0] != w1 {
		t.Fatalf("newly clear: %v", up.NewlyClear)
	}
	l.MarkPersisted(w1)
	if l.Tail() != w2 || l.Len() != 1 {
		t.Fatal("w1 did not unlink")
	}
	mustOK(t, l)
}

// A persisted valid node stays on the list as a clean coherence sharer.
func TestPersistedValidNodeStays(t *testing.T) {
	l := NewList(mem.Line(2))
	w := l.AddHead(0, true, true, v(0, 1), 1)
	up := l.MarkPersisted(w)
	if len(up.Removed) != 0 {
		t.Fatal("valid persisted node must not unlink")
	}
	if w.Dirty || !w.Valid || !w.OnList() {
		t.Fatal("node should become clean valid sharer")
	}
	mustOK(t, l)
	// Invalidating it later removes it immediately (clean invalid, clear).
	up = l.Invalidate(w)
	if len(up.Removed) != 1 || up.Removed[0] != w || l.Len() != 0 {
		t.Fatal("clean invalid clear node must disconnect")
	}
}

func TestCleanInvalidTailCollapses(t *testing.T) {
	l := NewList(mem.Line(2))
	r0 := l.AddHead(0, true, false, v(0, 0), 0)
	w1 := l.AddHead(1, true, true, v(1, 1), 1)
	up := l.Invalidate(r0)
	if len(up.Removed) != 1 || up.Removed[0] != r0 || r0.OnList() {
		t.Fatalf("clean invalid clear node should unlink immediately: %v", up.Removed)
	}
	if l.Tail() != w1 || l.Len() != 1 {
		t.Fatal("w1 should be alone")
	}
	mustOK(t, l)
}

// A clean invalid node above a dirty node waits, then collapses when the
// dirty node persists — this is how read-inclusion dependencies resolve.
func TestCleanNodeAboveDirtyWaits(t *testing.T) {
	l := NewList(mem.Line(3))
	w0 := l.AddHead(0, true, true, v(0, 1), 1)
	l.Invalidate(w0)
	r1 := l.AddHead(1, true, false, v(0, 1), 2) // reader of w0's value
	l.Invalidate(r1)                            // another writer comes along
	w2 := l.AddHead(2, true, true, v(2, 1), 3)
	mustOK(t, l)
	if !r1.OnList() {
		t.Fatal("clean invalid node above dirty must stay (encodes dependency)")
	}
	up := l.MarkPersisted(w0)
	// w0 unlinks, then r1 is clean+invalid+clear and goes too.
	if len(up.Removed) != 2 || up.Removed[0] != w0 || up.Removed[1] != r1 {
		t.Fatalf("removed: %v", up.Removed)
	}
	if len(up.NewlyClear) != 1 || up.NewlyClear[0] != w2 {
		t.Fatalf("newly clear: %v", up.NewlyClear)
	}
	if l.Tail() != w2 || l.Len() != 1 {
		t.Fatal("w2 should be alone now")
	}
	mustOK(t, l)
}

func TestMarkDirty(t *testing.T) {
	l := NewList(mem.Line(4))
	n := l.AddHead(0, true, false, v(0, 0), 0)
	l.MarkDirty(n, v(0, 5))
	if !n.Dirty || n.Version != v(0, 5) {
		t.Fatal("MarkDirty failed")
	}
	n.Valid = false
	defer func() {
		if recover() == nil {
			t.Fatal("dirtying invalid node did not panic")
		}
	}()
	l.MarkDirty(n, v(0, 6))
}

func TestRemoveClean(t *testing.T) {
	l := NewList(mem.Line(5))
	r0 := l.AddHead(0, true, false, v(0, 0), 0)
	r1 := l.AddHead(1, true, false, v(0, 0), 0)
	up := l.RemoveClean(r0)
	if len(up.Removed) != 1 || up.Removed[0] != r0 {
		t.Fatalf("removed: %v", up.Removed)
	}
	if l.Len() != 1 || l.Head() != r1 || l.Tail() != r1 {
		t.Fatal("remove clean broke list")
	}
	mustOK(t, l)
	w := l.AddHead(2, true, true, v(2, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveClean on dirty node did not panic")
		}
	}()
	l.RemoveClean(w)
}

func TestValidRunAtHead(t *testing.T) {
	l := NewList(mem.Line(6))
	w0 := l.AddHead(0, true, true, v(0, 1), 1)
	l.Invalidate(w0)
	w1 := l.AddHead(1, true, true, v(1, 1), 2)
	// Two readers join above the writer; all three valid at head.
	l.AddHead(2, true, false, v(1, 1), 3)
	l.AddHead(3, true, false, v(1, 1), 4)
	mustOK(t, l)
	if got := len(l.ValidNodes()); got != 3 {
		t.Fatalf("valid nodes = %d, want 3", got)
	}
	if l.DirtyNewest() != w1 {
		t.Fatal("newest dirty should be w1")
	}
}

func TestMoveToHead(t *testing.T) {
	l := NewList(mem.Line(9))
	w0 := l.AddHead(0, true, true, v(0, 1), 1)
	l.Invalidate(w0)
	r1 := l.AddHead(1, true, false, v(0, 1), 0)
	r2 := l.AddHead(2, true, false, v(0, 1), 0)
	// r1 upgrades to write: it re-queues at the head.
	l.MoveToHead(r1)
	mustOK(t, l)
	if l.Head() != r1 || r1.Next() != r2 || l.Tail() != w0 {
		t.Fatal("list order after move wrong")
	}
	if l.Len() != 3 {
		t.Fatalf("len=%d", l.Len())
	}
	if up := l.MoveToHead(r1); len(up.Removed) != 0 {
		t.Fatal("moving head should be a no-op")
	}
	l.MarkDirty(r1, v(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("MoveToHead on dirty node did not panic")
		}
	}()
	l.MoveToHead(r1)
}

func TestNodeOf(t *testing.T) {
	l := NewList(mem.Line(8))
	n := l.AddHead(4, true, false, v(0, 0), 0)
	if l.NodeOf(4) != n || l.NodeOf(5) != nil {
		t.Fatal("NodeOf lookup wrong")
	}
	l.RemoveClean(n)
	if l.NodeOf(4) != nil {
		t.Fatal("NodeOf after unlink should be nil")
	}
}

// Randomized property: after arbitrary interleavings of writer/reader
// arrivals and in-order persists, the invariants hold and persists happen
// in version order per line.
func TestPropertyRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		l := NewList(mem.Line(uint64(trial)))
		nextCache := 0
		var persisted []mem.Version
		var writeOrder []mem.Version
		seq := uint64(0)
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0: // new writer
				seq++
				ver := v(nextCache, seq)
				for _, n := range l.ValidNodes() {
					l.Invalidate(n)
				}
				l.AddHead(nextCache, true, true, ver, seq)
				writeOrder = append(writeOrder, ver)
				nextCache++
			case 1: // new reader of current value
				if h := l.Head(); h != nil && h.Valid {
					l.AddHead(nextCache, true, false, h.Version, 0)
					nextCache++
				}
			case 2: // persist the oldest dirty node if it is clear
				var oldest *Node
				for n := l.Tail(); n != nil; n = n.Prev() {
					if n.Dirty {
						oldest = n
						break
					}
				}
				if oldest != nil && oldest.Clear() {
					persisted = append(persisted, oldest.Version)
					l.MarkPersisted(oldest)
				}
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		// persisted must be a prefix of writeOrder.
		for i, p := range persisted {
			if i >= len(writeOrder) || writeOrder[i] != p {
				t.Fatalf("trial %d: persists out of write order: %v vs %v", trial, persisted, writeOrder)
			}
		}
	}
}

func TestDirectory(t *testing.T) {
	set := stats.NewSet()
	d := NewDirectory(set)
	if d.Peek(mem.Line(1)) != nil {
		t.Fatal("peek should not create")
	}
	l := d.List(mem.Line(1))
	if d.List(mem.Line(1)) != l {
		t.Fatal("List should return same instance")
	}
	l.AddHead(0, true, true, v(0, 1), 1)
	l.AddHead(1, true, false, v(0, 1), 0)
	d.Sample(l)
	d.Sample(d.List(mem.Line(2))) // empty list: ignored
	coh, per := d.Lengths()
	if coh != 2 || per != 2 {
		t.Fatalf("lengths: %f %f", coh, per)
	}
	if err := d.CheckAll(); err != nil {
		t.Fatal(err)
	}
	if d.Lines() != 2 {
		t.Fatalf("lines=%d", d.Lines())
	}
}
