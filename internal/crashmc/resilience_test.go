package crashmc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/machine"
)

func resilienceSpec() ResilienceSpec {
	return ResilienceSpec{
		Name:       "test",
		Benchmarks: Adversaries()[:1],
		Systems:    []machine.SystemKind{machine.TSOPER},
		Schedules:  []faultplan.Spec{mustPreset("nvm-transient"), mustPreset("agb-degraded")},
		Scale:      0.3,
		Seed:       42,
		Points:     4,
		Parallel:   4,
	}
}

func mustPreset(name string) faultplan.Spec {
	s, ok := faultplan.Preset(name)
	if !ok {
		panic("missing preset " + name)
	}
	return s
}

// Acceptance: the resilience campaign's invariants hold — faults injected
// and recovered, no stalls, no lost persists, every recovered crash state
// checker-accepted, fault overhead measurable.
func TestResilienceCampaignClean(t *testing.T) {
	report, err := RunResilience(resilienceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("campaign not clean: %s", report.Summary())
	}
	if report.Injections == 0 || report.Recoveries == 0 {
		t.Fatalf("campaign injected or recovered nothing: %s", report.Summary())
	}
	if report.CrashPoints != 2*4 {
		t.Fatalf("crash points %d, want 8 (2 cells x 4)", report.CrashPoints)
	}
	if report.PartialStates == 0 {
		t.Fatal("campaign never caught the machine mid-persist")
	}
	for _, c := range report.Cells {
		if c.BaselineCycles == 0 || c.FaultedCycles == 0 {
			t.Fatalf("cell %s/%s missing horizons: %+v", c.System, c.Schedule, c)
		}
		if c.FaultedCycles < c.BaselineCycles {
			t.Fatalf("cell %s faster under faults: %d < %d",
				c.Schedule, c.FaultedCycles, c.BaselineCycles)
		}
		if c.Counts.Injected() == 0 {
			t.Fatalf("cell %s injected nothing", c.Schedule)
		}
	}
}

// Determinism across worker counts: the simulations are single-threaded and
// every cell is seeded, so serial and parallel execution agree exactly.
func TestResilienceDeterministicAcrossWorkers(t *testing.T) {
	serial := resilienceSpec()
	serial.Parallel = 1
	parallel := resilienceSpec()
	parallel.Parallel = 8
	a, err := RunResilience(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResilience(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverged across worker counts:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

func TestResilienceValidation(t *testing.T) {
	if _, err := RunResilience(ResilienceSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	spec := resilienceSpec()
	spec.Systems = []machine.SystemKind{machine.Baseline}
	if _, err := RunResilience(spec); err == nil {
		t.Fatal("non-strict system accepted")
	}
	spec = resilienceSpec()
	spec.Points = 0
	if _, err := RunResilience(spec); err == nil {
		t.Fatal("zero crash-point budget accepted")
	}
	spec = resilienceSpec()
	spec.Schedules = []faultplan.Spec{{NVM: faultplan.NVMSpec{WriteFailPct: 7}}}
	if _, err := RunResilience(spec); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

// An abandonment schedule must surface as a dirty report (stall or lost),
// never as a hang and never as silent success.
func TestResilienceReportsAbandonment(t *testing.T) {
	spec := resilienceSpec()
	spec.Points = 2
	spec.Schedules = []faultplan.Spec{{
		Name: "abandon", Seed: 13,
		NVM: faultplan.NVMSpec{WriteFailPct: 0.6},
		Resilience: faultplan.Resilience{
			NVMRetryLimit: 1, NVMBackoff: 8, DisableDegradation: true,
		},
	}}
	report, err := RunResilience(spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatalf("abandonment schedule reported clean: %s", report.Summary())
	}
	if report.Stalls == 0 && report.Lost == 0 {
		t.Fatalf("no stall or loss recorded: %s", report.Summary())
	}
	found := false
	for _, c := range report.Cells {
		found = found || len(c.Incidents) > 0
	}
	if !found {
		t.Fatal("no incident detail recorded")
	}
}

// The JSON artifact round-trips; it carries each cell's horizons.
func TestResilienceJSONRoundTrip(t *testing.T) {
	spec := resilienceSpec()
	spec.Schedules = spec.Schedules[:1]
	spec.Points = 2
	report, err := RunResilience(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ResilienceReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, report) {
		t.Fatalf("round trip lost data:\n%+v\nvs\n%+v", back, *report)
	}
}
