package telemetry

import (
	"testing"
)

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus reports enabled")
	}
	if got := b.Track("p", "t"); got != 0 {
		t.Fatalf("nil bus Track = %d, want 0", got)
	}
	if b.Tracks() != nil {
		t.Fatal("nil bus has tracks")
	}
	// None of these may panic.
	b.Begin(0, "x", 1, 1)
	b.End(0, "x", 2, 1)
	b.Span(0, "x", 1, 2, 0)
	b.Instant(0, "x", 3, 0, 0)
	b.Count(0, "x", 4, 5)
}

func TestDisabledBusDropsEvents(t *testing.T) {
	b := NewBus(nil)
	if b.Enabled() {
		t.Fatal("sinkless bus reports enabled")
	}
	tr := b.Track("proc", "row")
	if tr == 0 {
		t.Fatal("real registration returned the reserved handle")
	}
	b.Instant(tr, "x", 1, 0, 0)
	b.Count(tr, "x", 2, 3)
	if len(b.Tracks()) != 2 { // reserved + registered
		t.Fatalf("tracks = %d, want 2", len(b.Tracks()))
	}
}

func TestEmissionIsAllocationFree(t *testing.T) {
	var nilBus *Bus
	sink := &CountingSink{}
	live := NewBus(sink)
	tr := live.Track("p", "t")

	if n := testing.AllocsPerRun(1000, func() {
		nilBus.Begin(0, "span", 1, 7)
		nilBus.Instant(0, "inst", 2, 7, 9)
		nilBus.Count(0, "ctr", 3, 4)
	}); n != 0 {
		t.Fatalf("nil bus emission allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		live.Begin(tr, "span", 1, 7)
		live.End(tr, "span", 2, 7)
		live.Span(tr, "op", 3, 4, 0)
		live.Instant(tr, "inst", 5, 7, 9)
		live.Count(tr, "ctr", 6, 4)
	}); n != 0 {
		t.Fatalf("live bus emission allocates %v/op", n)
	}
	if sink.Total() == 0 {
		t.Fatal("counting sink saw nothing")
	}
}

func TestCountingSink(t *testing.T) {
	s := &CountingSink{}
	bus := NewBus(s)
	tr := bus.Track("p", "t")
	bus.Begin(tr, "s", 1, 1)
	bus.End(tr, "s", 2, 1)
	bus.Instant(tr, "i", 3, 0, 0)
	bus.Count(tr, "c", 4, 9)
	bus.Span(tr, "x", 5, 6, 0)
	if s.Total() != 5 {
		t.Fatalf("sink saw %d events, want 5", s.Total())
	}
	if s.Events[SpanBegin] != 1 || s.Events[SpanEnd] != 1 || s.Events[Instant] != 1 ||
		s.Events[Counter] != 1 || s.Events[Complete] != 1 {
		t.Fatalf("per-type counts wrong: %v", s.Events)
	}
	if s.Tracks != 2 { // reserved track 0 + registered
		t.Fatalf("sink saw %d tracks, want 2", s.Tracks)
	}
}
