package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// runTraced runs a small TSOPER workload with a trace sink attached and
// returns the sink plus the results.
func runTraced(t *testing.T, kind SystemKind, ops int, seed int64) (*telemetry.TraceSink, *Results) {
	t.Helper()
	cfg := TableI(kind)
	sink := telemetry.NewTraceSink()
	cfg.Telemetry = telemetry.NewBus(sink)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Generate(smallProfile(ops), cfg.Cores, seed)
	return sink, m.Run(w)
}

// eventTally groups the emitted events by (process, name).
func eventTally(sink *telemetry.TraceSink) map[string]int {
	tally := make(map[string]int)
	tracks := sink.Tracks()
	for _, e := range sink.Events() {
		proc := "unattributed"
		if int(e.Track) < len(tracks) {
			proc = tracks[e.Track].Process
		}
		tally[proc+"/"+e.Name]++
	}
	return tally
}

func TestTraceCoversAllSubsystems(t *testing.T) {
	sink, r := runTraced(t, TSOPER, 400, 11)
	if r.Stores == 0 {
		t.Fatal("degenerate run")
	}
	tally := eventTally(sink)

	// AG lifecycle spans on core tracks: every phase must appear, and every
	// Begin must be matched by an End (groups all retire in Run).
	for _, phase := range []string{agPhaseOpen, agPhaseFrozen, agPhaseDraining, agPhaseDurable} {
		if tally["cores/"+phase] == 0 {
			t.Errorf("no %q spans emitted", phase)
		}
	}
	var begins, ends int
	for _, e := range sink.Events() {
		if strings.HasPrefix(e.Name, "ag:") {
			switch e.Type {
			case telemetry.SpanBegin:
				begins++
			case telemetry.SpanEnd:
				ends++
			}
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("unbalanced AG spans: %d begins, %d ends", begins, ends)
	}

	// Sub-component activity.
	for _, want := range []string{
		"agb/agb.occupancy_lines", // AGB occupancy counter track
		"agb/allocate",
		"agb/retire",
		"nvm/write", // NVM rank spans
		"noc/msg",   // NoC message spans
		"slc/token-pass",
		"cores/freeze", // probe-kind instants ride the bus too
		"cores/line-buffered",
	} {
		if tally[want] == 0 {
			t.Errorf("no %q events emitted (tally: %v)", want, sink.Summary())
		}
	}

	// NVM queue-depth counters are per rank with unique names.
	depthTracks := 0
	for name := range tally {
		if strings.HasPrefix(name, "nvm/nvm.rank") && strings.HasSuffix(name, ".queue_depth") {
			depthTracks++
		}
	}
	if depthTracks == 0 {
		t.Error("no NVM rank queue-depth counters")
	}
}

func TestTraceWriteJSONFromMachine(t *testing.T) {
	sink, _ := runTraced(t, TSOPER, 300, 3)
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// Async AG spans must be present ("b" phases with ids).
	asyncBegins := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "b" && strings.HasPrefix(fmt.Sprint(e["name"]), "ag:") {
			asyncBegins++
		}
	}
	if asyncBegins == 0 {
		t.Error("no async AG lifecycle spans in JSON output")
	}
}

// The probe must observe the identical event stream whether it runs alone
// or beside a full trace sink, and the bus must carry the same transitions
// as instants on the owning core's track: one emission feeds both.
func TestProbeMatchesBusInstants(t *testing.T) {
	collect := func(sink *telemetry.TraceSink) []Event {
		cfg := TableI(TSOPER)
		var events []Event
		cfg.Probe = func(e Event) { events = append(events, e) }
		if sink != nil {
			cfg.Telemetry = telemetry.NewBus(sink)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sink == nil && m.tel != nil {
			t.Fatal("a probe-only config switched the telemetry bus on")
		}
		m.Run(trace.Generate(smallProfile(300), cfg.Cores, 9))
		return events
	}
	sink := telemetry.NewTraceSink()
	probeOnly := collect(nil)
	composed := collect(sink)
	if len(probeOnly) == 0 {
		t.Fatal("probe saw no events")
	}
	if len(probeOnly) != len(composed) {
		t.Fatalf("probe stream diverges: %d events alone, %d composed with trace sink",
			len(probeOnly), len(composed))
	}
	for i := range probeOnly {
		if probeOnly[i] != composed[i] {
			t.Fatalf("event %d diverges: %v vs %v", i, probeOnly[i], composed[i])
		}
	}

	// Every probe event is an instant on its core's track, in order, with
	// the same cycle, group and payload.
	kinds := map[string]bool{}
	for _, e := range probeOnly {
		kinds[e.Kind.String()] = true
	}
	tracks := sink.Tracks()
	var instants []telemetry.Event
	for _, e := range sink.Events() {
		if e.Type == telemetry.Instant && tracks[e.Track].Process == "cores" && kinds[e.Name] {
			instants = append(instants, e)
		}
	}
	if len(instants) != len(probeOnly) {
		t.Fatalf("bus carried %d transition instants, probe saw %d", len(instants), len(probeOnly))
	}
	var sawLine, sawReason bool
	for i, e := range probeOnly {
		in := instants[i]
		aux := uint64(0)
		switch e.Kind {
		case EvLineBuffered:
			aux, sawLine = uint64(e.Line), sawLine || e.Line != 0
		case EvFreeze:
			aux, sawReason = uint64(e.Reason), sawReason || e.Reason != 0
		}
		if in.Name != e.Kind.String() || tracks[in.Track].Thread != fmt.Sprintf("core %d", e.Core) ||
			uint64(in.At) != uint64(e.At) || in.Scope != e.Group || in.Aux != aux {
			t.Fatalf("transition %d: probe %v, bus %+v", i, e, in)
		}
		if e.At == 0 && e.Kind != EvFreeze {
			t.Fatalf("event missing timestamp: %v", e)
		}
	}
	if !sawLine || !sawReason {
		t.Error("probe events lost their Line/Reason payloads")
	}
}

func TestResultsSnapshotResources(t *testing.T) {
	r := runSmall(t, TSOPER, 300, 4)
	if len(r.Resources) == 0 {
		t.Fatal("no resource snapshots")
	}
	for _, prefix := range []string{"llc.bank", "noc.node", "nvm.rank", "agb.slice"} {
		if _, ok := r.Resources[prefix+"0"]; !ok {
			t.Errorf("missing resource %s0 (have %d entries)", prefix, len(r.Resources))
		}
	}
	for name, rs := range r.Resources {
		if rs.Utilization < 0 || rs.Utilization > 1 {
			t.Errorf("%s: utilization %v out of [0,1]", name, rs.Utilization)
		}
	}
	s := r.Snapshot()
	if s.Cycles != uint64(r.Cycles) || len(s.Resources) != len(r.Resources) {
		t.Fatal("snapshot does not mirror results")
	}
	if len(s.Counters) == 0 || len(s.Dists) == 0 {
		t.Fatal("snapshot missing registry metrics")
	}
}

// Snapshots of two same-seed runs must serialize byte-identically.
func TestSnapshotDeterministicAcrossRuns(t *testing.T) {
	render := func() []byte {
		r := runSmall(t, TSOPER, 250, 21)
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed snapshots differ byte-wise")
	}
}

// With no sink configured, instrumentation must not allocate or emit.
func TestNoSinkNoTelemetryState(t *testing.T) {
	cfg := TableI(TSOPER)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.tel != nil {
		t.Fatal("telemetry state allocated without a sink")
	}
	// A bus without a sink is equally inert.
	cfg.Telemetry = telemetry.NewBus(nil)
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.tel != nil {
		t.Fatal("telemetry state allocated for sinkless bus")
	}
}
