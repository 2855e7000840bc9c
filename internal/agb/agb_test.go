package agb

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/stats"
)

func setup(cfg Config) (*sim.Engine, *nvm.Memory, *Buffer) {
	e := sim.NewEngine()
	set := stats.NewSet()
	m := nvm.New(e, nvm.DefaultConfig(), set)
	return e, m, New(e, m, cfg, set)
}

func lines(ls ...uint64) map[mem.Line]mem.Version {
	out := make(map[mem.Line]mem.Version)
	for i, l := range ls {
		out[mem.Line(l)] = mem.Version{Core: 0, Seq: uint64(i + 1)}
	}
	return out
}

func TestSingleGroupLifecycle(t *testing.T) {
	e, m, b := setup(Config{Slices: 1, LinesPerSlice: 16, TransferLatency: 4})
	var events []string
	err := b.Persist(Request{
		ID:          1,
		Lines:       lines(1, 2, 3),
		OnAllocated: func() { events = append(events, "alloc") },
		OnDurable:   func() { events = append(events, "durable") },
		OnRetired:   func() { events = append(events, "retired") },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	want := []string{"alloc", "durable", "retired"}
	if len(events) != 3 {
		t.Fatalf("events: %v", events)
	}
	for i, w := range want {
		if events[i] != w {
			t.Fatalf("events: %v", events)
		}
	}
	for l := uint64(1); l <= 3; l++ {
		if m.Durable(mem.Line(l)).IsInitial() {
			t.Fatalf("line %d not durable in NVM", l)
		}
	}
	if b.Used() != 0 || b.InFlight() != 0 {
		t.Fatalf("buffer not drained: used=%d inflight=%d", b.Used(), b.InFlight())
	}
}

func TestGroupTooLargeRejected(t *testing.T) {
	_, _, b := setup(Config{Slices: 1, LinesPerSlice: 2, TransferLatency: 1})
	if err := b.Persist(Request{ID: 1, Lines: lines(1, 2, 3)}); err == nil {
		t.Fatal("oversized group must be rejected")
	}
}

func TestReservationStallsUntilSpaceFrees(t *testing.T) {
	e, _, b := setup(Config{Slices: 1, LinesPerSlice: 4, TransferLatency: 1})
	var order []uint64
	mk := func(id uint64, ls ...uint64) Request {
		return Request{ID: id, Lines: lines(ls...),
			OnDurable: func() { order = append(order, id) }}
	}
	if err := b.Persist(mk(1, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Persist(mk(2, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if b.Waiting() != 1 {
		t.Fatalf("waiting=%d, want 1 (group 2 must stall)", b.Waiting())
	}
	if b.Stalls() == 0 {
		t.Fatal("stall not counted")
	}
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("durability order: %v", order)
	}
}

// Durability frontier: a later-allocated group that finishes buffering first
// must wait for the earlier group before becoming durable.
func TestDurabilityFrontierFIFO(t *testing.T) {
	e, _, b := setup(Config{Slices: 2, LinesPerSlice: 16, TransferLatency: 1, ArbiterLatency: 2})
	var order []uint64
	// Group 1 is large (slice 0: lines 0,2,4,6,8 -> five transfers);
	// group 2 is tiny (slice 1: line 1).
	big := lines(0, 2, 4, 6, 8)
	small := lines(1)
	b.Persist(Request{ID: 1, Lines: big, OnDurable: func() { order = append(order, 1) }})
	b.Persist(Request{ID: 2, Lines: small, OnDurable: func() { order = append(order, 2) }})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("durability order: %v (frontier must be FIFO)", order)
	}
}

// TestBufferedUntilWritten: a line stays Buffered while any of its versions
// waits in the buffer, and not once the last of them is written to NVM.
func TestBufferedUntilWritten(t *testing.T) {
	e, m, b := setup(Config{Slices: 1, LinesPerSlice: 16, TransferLatency: 1})
	l := mem.Line(7)
	if b.Buffered(l) {
		t.Fatal("empty buffer reports the line buffered")
	}
	b.Persist(Request{ID: 1, Lines: map[mem.Line]mem.Version{l: {Core: 0, Seq: 1}}})
	b.Persist(Request{ID: 2, Lines: map[mem.Line]mem.Version{l: {Core: 1, Seq: 1}}})
	// Run until both buffered but before NVM writes complete (360 cycles).
	e.RunUntil(10)
	if !b.Buffered(l) {
		t.Fatal("line with two buffered versions not reported buffered")
	}
	if b.Buffered(l + 1) {
		t.Fatal("a line no group wrote reported buffered")
	}
	// Run until the first version is written but the second is not: the
	// line is still buffered.
	var firstWritten sim.Time
	for e.Step() {
		if m.Durable(l) == (mem.Version{Core: 0, Seq: 1}) {
			firstWritten = e.Now()
			break
		}
	}
	if firstWritten == 0 || !b.Buffered(l) {
		t.Fatalf("after the first write (cycle %d) the second version must still be buffered", firstWritten)
	}
	e.Run()
	if b.Buffered(l) {
		t.Fatal("drained line must leave the buffer")
	}
}

func TestSameAddressFIFOToNVM(t *testing.T) {
	e, m, b := setup(Config{Slices: 4, LinesPerSlice: 16, TransferLatency: 1, ArbiterLatency: 1})
	l := mem.Line(12)
	for seq := uint64(1); seq <= 3; seq++ {
		seq := seq
		b.Persist(Request{ID: seq, Lines: map[mem.Line]mem.Version{l: {Core: 0, Seq: seq}}})
	}
	e.Run()
	if got := m.Durable(l); got != (mem.Version{Core: 0, Seq: 3}) {
		t.Fatalf("final durable version %v, want seq 3", got)
	}
}

func TestOnLineBuffered(t *testing.T) {
	e, _, b := setup(Config{Slices: 1, LinesPerSlice: 16, TransferLatency: 2})
	var buffered []mem.Line
	b.Persist(Request{ID: 1, Lines: lines(3, 1, 2),
		OnLineBuffered: func(l mem.Line) { buffered = append(buffered, l) }})
	e.Run()
	if len(buffered) != 3 {
		t.Fatalf("buffered: %v", buffered)
	}
	// Deterministic address order on a single port.
	for i, l := range []mem.Line{1, 2, 3} {
		if buffered[i] != l {
			t.Fatalf("buffered order: %v", buffered)
		}
	}
}

func TestEmptyGroup(t *testing.T) {
	e, _, b := setup(Config{Slices: 1, LinesPerSlice: 8, TransferLatency: 1})
	durable := false
	retired := false
	b.Persist(Request{ID: 1, Lines: nil,
		OnDurable: func() { durable = true },
		OnRetired: func() { retired = true }})
	e.Run()
	if !durable || !retired {
		t.Fatal("empty group must complete immediately")
	}
}

func TestMaxGroupLines(t *testing.T) {
	_, _, b := setup(DefaultConfig())
	if b.MaxGroupLines() != 160 || b.Capacity() != 1280 {
		t.Fatalf("geometry: max=%d cap=%d", b.MaxGroupLines(), b.Capacity())
	}
}

func TestDistributedSliceCapacity(t *testing.T) {
	// 2 slices x 2 lines. A group with 3 lines in one slice must be
	// rejected even though total capacity (4) would fit it.
	_, _, b := setup(Config{Slices: 2, LinesPerSlice: 2, TransferLatency: 1})
	if err := b.Persist(Request{ID: 1, Lines: lines(0, 2, 4)}); err == nil {
		t.Fatal("per-slice overflow must be rejected")
	}
	if err := b.Persist(Request{ID: 2, Lines: lines(0, 1, 2, 3)}); err != nil {
		t.Fatalf("balanced group must fit: %v", err)
	}
}

// Property: random groups through a small buffer — durability order always
// equals enqueue order, and the buffer fully drains.
func TestPropertyFIFODurability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		e, m, b := setup(Config{Slices: 2, LinesPerSlice: 8, TransferLatency: 1, ArbiterLatency: 1})
		var order []uint64
		n := 20
		expect := map[mem.Line]mem.Version{}
		for id := uint64(1); id <= uint64(n); id++ {
			id := id
			nl := 1 + rng.Intn(6)
			ls := map[mem.Line]mem.Version{}
			for len(ls) < nl {
				l := mem.Line(rng.Intn(32))
				v := mem.Version{Core: int(id), Seq: id}
				ls[l] = v
			}
			for l, v := range ls {
				expect[l] = v // later groups overwrite: same-address FIFO
			}
			if err := b.Persist(Request{ID: id, Lines: ls,
				OnDurable: func() { order = append(order, id) }}); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
		if len(order) != n {
			t.Fatalf("trial %d: %d groups durable, want %d", trial, len(order), n)
		}
		for i := 1; i < len(order); i++ {
			if order[i] != order[i-1]+1 {
				t.Fatalf("trial %d: durability order %v", trial, order)
			}
		}
		if b.Used() != 0 || b.InFlight() != 0 || b.Waiting() != 0 {
			t.Fatalf("trial %d: buffer not drained", trial)
		}
		for l, v := range expect {
			if got := m.Durable(l); got != v {
				t.Fatalf("trial %d: line %v durable %v want %v", trial, l, got, v)
			}
		}
	}
}
