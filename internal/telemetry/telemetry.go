// Package telemetry is the machine-wide instrumentation subsystem: a typed
// event bus that simulated components emit spans, instants, and counter
// samples into, plus exporters that render one run as a Perfetto/Chrome
// timeline (perfetto.go) or as a unified, deterministic metrics snapshot
// (snapshot.go).
//
// The bus is designed so that instrumentation can stay compiled into every
// hot path permanently:
//
//   - A nil *Bus is valid. Every method no-ops on a nil receiver, so
//     components hold a possibly-nil bus and emit unconditionally.
//   - Emission is allocation-free: events are fixed-size structs passed by
//     value, names are static strings, and tracks are small integer handles
//     registered once at construction time.
//   - With no sink attached the only cost per emission site is a nil check.
//     The overhead-guard benchmark (internal/machine) asserts a full
//     simulation with no sink stays within noise of an uninstrumented run.
//
// Time on the bus is Ticks — simulation cycles as raw uint64 — so the
// package stays a leaf: it does not import internal/sim and can be consumed
// by every layer of the machine.
package telemetry

// Ticks is a timestamp in simulation cycles.
type Ticks uint64

// Type classifies an event on the bus.
type Type uint8

const (
	// SpanBegin opens a duration. A nonzero Scope makes the span
	// asynchronous (correlated by Scope, e.g. an atomic-group ID) so spans
	// on one track may overlap; Scope zero means strictly nested.
	SpanBegin Type = iota
	// SpanEnd closes the innermost (Scope zero) or Scope-matching span.
	SpanEnd
	// Complete is a self-contained span: At..At+Dur. Components that know
	// an operation's full extent at issue time (an NVM write, a NoC
	// message) emit one Complete instead of a Begin/End pair.
	Complete
	// Instant is a point event.
	Instant
	// Counter samples the value of a counter series at time At.
	Counter
)

func (t Type) String() string {
	switch t {
	case SpanBegin:
		return "span-begin"
	case SpanEnd:
		return "span-end"
	case Complete:
		return "complete"
	case Instant:
		return "instant"
	case Counter:
		return "counter"
	default:
		return "unknown"
	}
}

// Track is an interned handle for one timeline row. Tracks are registered
// once (Bus.Track) and referenced by handle on every emission.
type Track int32

// TrackInfo names a track: Process groups rows into one component
// ("cores", "agb", "nvm", "noc", "slc"); Thread is the row within it
// ("core 3", "rank 0", "occupancy").
type TrackInfo struct {
	Process string
	Thread  string
}

// Event is one emission. It is passed by value and contains no pointers
// beyond the (static) name string, so emitting never allocates.
type Event struct {
	Type  Type
	Track Track
	// Name identifies the span/instant/counter series. Emission sites pass
	// string constants; exporters may intern them.
	Name string
	// At is the event cycle; Dur is the extent of Complete events.
	At  Ticks
	Dur Ticks
	// Scope correlates async span pairs and tags instants with the entity
	// they concern (atomic-group ID, message ID). Zero means unscoped.
	Scope uint64
	// Value carries Counter samples.
	Value int64
	// Aux is an event-specific payload: the cacheline for line events, the
	// freeze reason for freeze instants, the walk length for invalidation
	// walks.
	Aux uint64
}

// Sink consumes the event stream. DefineTrack is invoked exactly once per
// track, before any event referencing it.
type Sink interface {
	DefineTrack(t Track, info TrackInfo)
	Emit(e Event)
}

// Bus is the emission hub for one simulation. Construct one per machine
// (handles are machine-local) and attach it via the machine configuration.
// A nil *Bus disables all instrumentation at the cost of one branch per
// emission site.
type Bus struct {
	sink   Sink
	tracks []TrackInfo
}

// NewBus creates a bus delivering to sink. A nil sink yields a registered
// but inert bus: tracks intern normally, emissions are dropped.
func NewBus(sink Sink) *Bus {
	// Track 0 is a reserved catch-all so that the zero Track value (what a
	// nil bus hands out) never collides with a real registration.
	b := &Bus{sink: sink}
	b.Track("unattributed", "unattributed")
	return b
}

// Enabled reports whether emissions reach a sink.
func (b *Bus) Enabled() bool { return b != nil && b.sink != nil }

// Track interns a timeline row and returns its handle. On a nil bus it
// returns the reserved zero handle.
func (b *Bus) Track(process, thread string) Track {
	if b == nil {
		return 0
	}
	t := Track(len(b.tracks))
	b.tracks = append(b.tracks, TrackInfo{Process: process, Thread: thread})
	if b.sink != nil {
		b.sink.DefineTrack(t, b.tracks[t])
	}
	return t
}

// Tracks returns the registered track table (index = handle).
func (b *Bus) Tracks() []TrackInfo {
	if b == nil {
		return nil
	}
	return b.tracks
}

// emit forwards to the sink; the enabled check keeps the disabled path to a
// pair of branches with no argument evaluation beyond the caller's struct
// literal (which the compiler keeps on the stack).
func (b *Bus) emit(e Event) {
	if b == nil || b.sink == nil {
		return
	}
	b.sink.Emit(e)
}

// Begin opens a span on track t. scope zero = nested; nonzero = async,
// correlated with the matching End.
func (b *Bus) Begin(t Track, name string, at Ticks, scope uint64) {
	if b == nil || b.sink == nil {
		return
	}
	b.sink.Emit(Event{Type: SpanBegin, Track: t, Name: name, At: at, Scope: scope})
}

// End closes a span opened with Begin.
func (b *Bus) End(t Track, name string, at Ticks, scope uint64) {
	if b == nil || b.sink == nil {
		return
	}
	b.sink.Emit(Event{Type: SpanEnd, Track: t, Name: name, At: at, Scope: scope})
}

// Span emits a complete at..at+dur span in one event.
func (b *Bus) Span(t Track, name string, at, dur Ticks, scope uint64) {
	if b == nil || b.sink == nil {
		return
	}
	b.sink.Emit(Event{Type: Complete, Track: t, Name: name, At: at, Dur: dur, Scope: scope})
}

// Instant emits a point event with an entity scope and auxiliary payload.
func (b *Bus) Instant(t Track, name string, at Ticks, scope, aux uint64) {
	if b == nil || b.sink == nil {
		return
	}
	b.sink.Emit(Event{Type: Instant, Track: t, Name: name, At: at, Scope: scope, Aux: aux})
}

// Count samples a counter series at time at.
func (b *Bus) Count(t Track, name string, at Ticks, value int64) {
	if b == nil || b.sink == nil {
		return
	}
	b.sink.Emit(Event{Type: Counter, Track: t, Name: name, At: at, Value: value})
}

// CountingSink counts events per type — the cheapest possible live sink,
// used by overhead benchmarks and tests.
type CountingSink struct {
	Tracks int
	Events [5]uint64 // indexed by Type
}

// DefineTrack implements Sink.
func (c *CountingSink) DefineTrack(Track, TrackInfo) { c.Tracks++ }

// Emit implements Sink.
func (c *CountingSink) Emit(e Event) { c.Events[e.Type]++ }

// Total returns the number of events observed.
func (c *CountingSink) Total() uint64 {
	var n uint64
	for _, v := range c.Events {
		n += v
	}
	return n
}
