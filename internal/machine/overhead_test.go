package machine

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The telemetry overhead guard: instrumentation is compiled into every hot
// path, so the no-sink configuration must stay essentially free — each
// emission site reduces to one nil check and the machine allocates no
// telemetry state at all.

// TestNoSinkEmissionZeroAlloc pins the per-emission cost without a sink to
// zero allocations on every machine-side emission helper.
func TestNoSinkEmissionZeroAlloc(t *testing.T) {
	m, err := New(TableI(TSOPER))
	if err != nil {
		t.Fatal(err)
	}
	g := m.sys.(*tsoperSys).trackers[0].Open()
	checks := map[string]func(){
		"emit":        func() { m.emit(Event{Kind: EvFreeze, Core: 0, Group: 1}) },
		"agBegin":     func() { m.agBegin(g, agPhaseOpen) },
		"agEnd":       func() { m.agEnd(g, agPhaseOpen) },
		"evbufSample": func() { m.evbufSample(0) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call without a sink", name, allocs)
		}
	}
}

// The telemetry-overhead triple: no sink, a counting sink and a full trace.
// A slower no-sink number means the disabled-telemetry path grew;
// TestNoSinkEmissionZeroAlloc gates its allocations.

func benchmarkRun(b *testing.B, mkBus func() *telemetry.Bus) {
	for i := 0; i < b.N; i++ {
		cfg := TableI(TSOPER)
		cfg.Telemetry = mkBus()
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w := trace.Generate(smallProfile(400), cfg.Cores, 17)
		m.Run(w)
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	benchmarkRun(b, func() *telemetry.Bus { return nil })
}

func BenchmarkRunTelemetryCounting(b *testing.B) {
	benchmarkRun(b, func() *telemetry.Bus { return telemetry.NewBus(&telemetry.CountingSink{}) })
}

func BenchmarkRunTelemetryTrace(b *testing.B) {
	benchmarkRun(b, func() *telemetry.Bus { return telemetry.NewBus(telemetry.NewTraceSink()) })
}

// BenchmarkEmitNoSink isolates one emission site with telemetry disabled:
// the per-call cost the "within ~5% of baseline" budget rests on.
func BenchmarkEmitNoSink(b *testing.B) {
	m, err := New(TableI(TSOPER))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.emit(Event{Kind: EvFreeze, Core: 0, Group: 1})
	}
}
