package tardis

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/stats"
)

func newState(t *testing.T, caches int) *State {
	t.Helper()
	return New(caches, stats.NewSet())
}

func TestWriteBumpsLogicalTimePastLease(t *testing.T) {
	s := newState(t, 2)
	l := mem.Line(7)

	// Cache 0 reads: pts stays 0, lease runs to Lease.
	s.Read(0, l)
	if got := s.RTS(l); got != Lease {
		t.Fatalf("rts after first read = %d, want %d", got, Lease)
	}
	if s.NeedsRenewal(0, l) {
		t.Fatal("fresh lease should not need renewal")
	}

	// Cache 1 writes: wts jumps past the lease end — no invalidation
	// message, the lease is simply no longer live at the new time.
	s.Write(1, l)
	if got, want := s.WTS(l), uint64(Lease+1); got != want {
		t.Fatalf("wts after write = %d, want %d", got, want)
	}
	if got := s.PTS(1); got != Lease+1 {
		t.Fatalf("writer pts = %d, want %d", got, Lease+1)
	}
	// The writer holds an implicit lease on its own copy.
	if s.NeedsRenewal(1, l) {
		t.Fatal("writer's own copy should not need renewal")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseExpiryForcesRenewal(t *testing.T) {
	s := newState(t, 2)
	a, b := mem.Line(1), mem.Line(2)

	s.Read(0, a) // lease on a to 10
	// Cache 0's pts advances by writing b repeatedly past a's lease end.
	for i := 0; i < Lease+2; i++ {
		s.Write(0, b)
	}
	if s.PTS(0) <= Lease {
		t.Fatalf("pts = %d, expected to have advanced past %d", s.PTS(0), Lease)
	}
	if !s.NeedsRenewal(0, a) {
		t.Fatal("expired lease must need renewal")
	}
	s.Renew(0, a)
	if s.NeedsRenewal(0, a) {
		t.Fatal("renewed lease must be live again")
	}
}

// TestWriteCountsTSJumps: an exclusive acquisition counts a ts_jump when
// the writer's program timestamp has to jump past the line's lease
// frontier, and none when it is already beyond it.
func TestWriteCountsTSJumps(t *testing.T) {
	set := stats.NewSet()
	s := New(2, set)
	l, fresh := mem.Line(3), mem.Line(4)
	jumps := set.Counter("tardis.ts_jumps")

	s.Read(1, l) // lease frontier at Lease
	s.Write(0, l)
	if jumps.Value != 1 {
		t.Fatalf("ts_jumps after a write past a lease = %d, want 1", jumps.Value)
	}
	if got, want := s.WTS(l), uint64(Lease+1); got != want {
		t.Fatalf("wts = %d, want %d", got, want)
	}
	s.Write(0, fresh) // pts is already past fresh's (zero) frontier
	if jumps.Value != 1 {
		t.Fatalf("ts_jumps after a write with pts ahead = %d, want 1", jumps.Value)
	}
	if got := s.WTS(fresh); got != Lease+1 {
		t.Fatalf("wts of fresh line = %d, want the writer's pts %d", got, Lease+1)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceBumpsPastLeaseFrontier: a coalescing write hit needs no prior
// state on the line, advances wts/rts past the lease frontier like Write,
// and is not counted as a ts_jump.
func TestCoalesceBumpsPastLeaseFrontier(t *testing.T) {
	set := stats.NewSet()
	s := New(2, set)
	l := mem.Line(9)

	s.Coalesce(0, l) // first touch of the line: no panic, wts 0 -> 1
	if got := s.WTS(l); got != 1 {
		t.Fatalf("wts after coalesce on a fresh line = %d, want 1", got)
	}
	s.Read(1, l) // lease frontier to 1+Lease
	frontier := s.RTS(l)
	s.Coalesce(0, l)
	if got, want := s.WTS(l), frontier+1; got != want {
		t.Fatalf("wts after coalesce = %d, want %d (past the lease frontier)", got, want)
	}
	if s.RTS(l) != s.WTS(l) || s.PTS(0) != s.WTS(l) {
		t.Fatalf("coalesce left rts %d / pts %d behind wts %d", s.RTS(l), s.PTS(0), s.WTS(l))
	}
	if s.NeedsRenewal(0, l) {
		t.Fatal("coalescer's own copy should not need renewal")
	}
	if n := set.Counter("tardis.ts_jumps").Value; n != 0 {
		t.Fatalf("coalesce counted %d ts_jumps, want 0", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	set := stats.NewSet()
	s := New(2, set)
	l, other := mem.Line(1), mem.Line(2)
	s.Read(0, l)
	if s.NeedsRenewal(0, l) {
		t.Fatal("live lease misreported")
	}
	for i := 0; i < Lease+2; i++ {
		s.Write(0, other)
	}
	if !s.NeedsRenewal(0, l) {
		t.Fatal("expired lease misreported")
	}
	s.Renew(0, l)
	if got := set.Counter("tardis.lease_hits").Value; got != 1 {
		t.Fatalf("lease_hits = %d, want 1", got)
	}
	if got := set.Counter("tardis.renewals").Value; got != 1 {
		t.Fatalf("renewals = %d, want 1", got)
	}
	if set.Counter("tardis.ts_jumps").Value == 0 {
		t.Fatal("ts_jumps never incremented")
	}
}

// TestEncodeStateDeterministic pins that two identical operation sequences
// serialize byte-identically and that a differing lease or timestamp state
// changes the bytes.
func TestEncodeStateDeterministic(t *testing.T) {
	build := func(variant int) []byte {
		s := newState(t, 2)
		s.Read(0, mem.Line(5))
		s.Write(1, mem.Line(5))
		s.Write(0, mem.Line(9))
		switch variant {
		case 1: // a lease differs
			s.Read(1, mem.Line(9))
		case 2: // a timestamp differs
			s.Coalesce(0, mem.Line(9))
		}
		w := &ckpt.Writer{}
		w.Section("tardis.ts")
		s.EncodeState(w)
		return w.State()
	}
	a, b := build(0), build(0)
	if !bytes.Equal(a, b) {
		t.Fatal("identical states serialized differently")
	}
	if bytes.Equal(a, build(1)) {
		t.Fatal("differing lease states serialized identically")
	}
	if bytes.Equal(a, build(2)) {
		t.Fatal("differing timestamp states serialized identically")
	}
}
