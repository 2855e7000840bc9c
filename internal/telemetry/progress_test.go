package telemetry

import "testing"

func TestProgressSinkStride(t *testing.T) {
	var got []Progress
	p := NewProgressSink(10, func(pr Progress) { got = append(got, pr) })
	for i := 0; i < 35; i++ {
		p.Emit(Event{Type: Instant, At: Ticks(i * 3)})
	}
	if len(got) != 3 {
		t.Fatalf("expected 3 samples for 35 events at stride 10, got %d", len(got))
	}
	if got[2].Events != 30 {
		t.Errorf("third sample at %d events, want 30", got[2].Events)
	}
	p.Flush()
	last := got[len(got)-1]
	if last.Events != 35 || last.Cycle != Ticks(34*3) {
		t.Errorf("flush sample = %+v, want events 35 cycle %d", last, 34*3)
	}
}

func TestProgressSinkCycleMonotonic(t *testing.T) {
	p := NewProgressSink(1, func(Progress) {})
	p.Emit(Event{At: 100})
	p.Emit(Event{At: 40}) // out-of-order timestamps must not rewind
	if c := p.Current().Cycle; c != 100 {
		t.Fatalf("cycle rewound to %d", c)
	}
}

func TestProgressSinkDefaultStride(t *testing.T) {
	calls := 0
	p := NewProgressSink(0, func(Progress) { calls++ })
	for i := 0; i < DefaultProgressStride; i++ {
		p.Emit(Event{})
	}
	if calls != 1 {
		t.Fatalf("expected exactly one sample at the default stride, got %d", calls)
	}
}

// A ProgressSink on a bus samples every stride-th event.
func TestProgressSinkOnBus(t *testing.T) {
	samples := 0
	bus := NewBus(NewProgressSink(2, func(Progress) { samples++ }))
	tr := bus.Track("test", "row")
	for i := 0; i < 6; i++ {
		bus.Instant(tr, "tick", Ticks(i), 0, 0)
	}
	if samples != 3 {
		t.Fatalf("expected 3 samples, got %d", samples)
	}
}
