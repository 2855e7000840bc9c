package crashmc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/trace"
)

func smokeSpec() Spec {
	return Spec{
		Name:       "smoke",
		Benchmarks: Adversaries()[:2],
		Systems:    []machine.SystemKind{machine.TSOPER, machine.STW},
		Seed:       42,
		Points:     50,
		Parallel:   4,
	}
}

// The acceptance smoke campaign: >= 200 crash points across TSOPER and STW,
// event-targeted, executed by the parallel driver — every recovered image
// must be a TSO-consistent cut, and the campaign must actually exercise
// partially durable frontiers (not just trivially empty or complete ones).
func TestSmokeCampaignParallelClean(t *testing.T) {
	report, err := Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if report.Injections < 200 {
		t.Fatalf("smoke campaign ran %d injections, want >= 200", report.Injections)
	}
	if len(report.Violations) > 0 {
		t.Fatalf("violations found:\n%s", report.Violations[0].Violation)
	}
	if report.PartialStates == 0 {
		t.Fatal("campaign never caught the machine mid-persist — crash points too weak")
	}
	if report.DurableGroups == 0 {
		t.Fatal("campaign never saw a durable group")
	}
	if !report.Clean() {
		t.Fatal("clean report misreported")
	}
}

// Adversarial workloads under the pressure configuration (tiny AGB, tiny
// AG limit, two-entry eviction buffers) must still always recover to
// consistent cuts.
func TestPressureCampaignClean(t *testing.T) {
	spec := Spec{
		Name:       "pressure",
		Benchmarks: Adversaries()[2:],
		Systems:    []machine.SystemKind{machine.TSOPER},
		Seed:       7,
		Points:     30,
		Parallel:   4,
		Config:     PressureConfig,
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Violations) > 0 {
		t.Fatalf("violations under pressure config:\n%s", report.Violations[0].Violation)
	}
	if report.PartialStates == 0 {
		t.Fatal("pressure campaign never hit a partial state")
	}
}

// harvest generates the profile's workload and harvests its crash points.
func harvest(t *testing.T, p trace.Profile, cfg machine.Config, seed int64, budget int) ([]uint64, uint64) {
	t.Helper()
	points, horizon, err := HarvestWorkload(cfg, trace.Generate(p, cfg.Cores, seed), budget)
	if err != nil {
		t.Fatal(err)
	}
	return points, horizon
}

func TestHarvestFindsEventCycles(t *testing.T) {
	p := Adversaries()[0]
	points, horizon := harvest(t, p, machine.TableI(machine.TSOPER), 42, 40)
	if len(points) == 0 {
		t.Fatal("instrumented run harvested no event cycles")
	}
	if len(points) > 40 {
		t.Fatalf("budget ignored: %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i] <= points[i-1] {
			t.Fatalf("points not strictly increasing at %d", i)
		}
	}
	if horizon == 0 || points[len(points)-1] > horizon {
		t.Fatalf("horizon %d inconsistent with last point %d", horizon, points[len(points)-1])
	}
}

func TestPointGenerators(t *testing.T) {
	a := RandomPoints(10000, 16, 3)
	b := RandomPoints(10000, 16, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random sweep not deterministic per seed")
		}
		if a[i] == 0 || a[i] > 10000 {
			t.Fatalf("point %d out of range", a[i])
		}
	}
	if c := RandomPoints(10000, 16, 4); len(c) == len(a) {
		same := true
		for i := range a {
			same = same && a[i] == c[i]
		}
		if same {
			t.Fatal("different seeds produced identical sweeps")
		}
	}
}

// TestTopUpDrawsDistinctCycles pins the top-up of a short harvest: the
// campaign crashes at the harvested cycles plus distinct cycles of [1,
// horizon] the harvest missed, each once and in ascending order, and a run
// with fewer cycles than Points crashes at every cycle once.
func TestTopUpDrawsDistinctCycles(t *testing.T) {
	p := Adversaries()[0].Scale(0.01)
	cfg := func(k machine.SystemKind) machine.Config {
		c := machine.TableI(k)
		c.Cores = 2
		return c
	}
	harvested, horizon := harvest(t, p, cfg(machine.TSOPER), 42, 0)
	for _, tc := range []struct {
		name   string
		points int
		want   int  // injections
		all    bool // every cycle of [1, horizon] crashes
	}{
		{"short harvest", len(harvested) + 200, len(harvested) + 200, false},
		// Every cycle of [1, horizon], plus harvested successors past it.
		{"short horizon", int(horizon) + 50, int(horizon) + countAbove(harvested, horizon), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, err := Run(Spec{
				Benchmarks: []trace.Profile{p},
				Systems:    []machine.SystemKind{machine.TSOPER},
				Seed:       42,
				Points:     tc.points,
				Detail:     true,
				Config:     cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Injections != tc.want || len(report.Details) != tc.want {
				t.Fatalf("%d injections (%d details), want %d", report.Injections, len(report.Details), tc.want)
			}
			crashed := map[uint64]bool{}
			for i, inj := range report.Details {
				if i > 0 && inj.At <= report.Details[i-1].At {
					t.Fatalf("crash %d at cycle %d after cycle %d: not distinct and ascending", i, inj.At, report.Details[i-1].At)
				}
				crashed[inj.At] = true
			}
			for _, at := range harvested {
				if !crashed[at] {
					t.Fatalf("harvested cycle %d never crashed", at)
				}
			}
			if tc.all {
				for at := uint64(1); at <= horizon; at++ {
					if !crashed[at] {
						t.Fatalf("cycle %d of the %d-cycle horizon never crashed", at, horizon)
					}
				}
			}
		})
	}
}

// countAbove counts the cycles after the horizon.
func countAbove(cycles []uint64, horizon uint64) int {
	n := 0
	for _, at := range cycles {
		if at > horizon {
			n++
		}
	}
	return n
}

func TestCampaignValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	spec := smokeSpec()
	spec.Systems = []machine.SystemKind{machine.Baseline}
	if _, err := Run(spec); err == nil {
		t.Fatal("non-strict system accepted")
	}
	spec = smokeSpec()
	spec.Points = 0
	if _, err := Run(spec); err == nil {
		t.Fatal("zero point budget accepted")
	}
	spec = smokeSpec()
	spec.Strategy = StrategyEvents + 1
	if _, err := Run(spec); err == nil {
		t.Fatal("a crash-point strategy other than events accepted")
	}
}

// A configuration machine.New rejects comes back as an error, whether Run
// forks or replays its sweep — even when it surfaces in a worker goroutine.
// Run meets it in the harvest, so Sweep and Replay are checked directly too.
func TestRunRejectsInvalidConfig(t *testing.T) {
	invalid := func(k machine.SystemKind) machine.Config {
		cfg := machine.TableI(k)
		cfg.AGLimit = 0
		return cfg
	}
	for _, tc := range []struct {
		name   string
		replay bool
		sweep  func(machine.Config, *trace.Workload, []uint64, func(int, *machine.CrashState)) error
	}{
		{"fork", false, Sweep},
		{"replay", true, Replay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				Benchmarks: Adversaries()[:2],
				Systems:    []machine.SystemKind{machine.TSOPER},
				Seed:       1,
				Points:     4,
				Parallel:   2,
				Config:     invalid,
				replay:     tc.replay,
			}
			report, err := Run(spec)
			if err == nil || report != nil {
				t.Fatalf("invalid config: report %v, err %v", report, err)
			}
			if !strings.HasPrefix(err.Error(), "crashmc: ") || !strings.Contains(err.Error(), "AG limit") {
				t.Fatalf("error %q does not name the rejected AG limit", err)
			}
			cfg := invalid(machine.TSOPER)
			w := trace.Generate(Adversaries()[0], cfg.Cores, 1)
			err = tc.sweep(cfg, w, []uint64{500, 1000}, func(int, *machine.CrashState) {
				t.Error("visited a crash state of a rejected configuration")
			})
			if err == nil || !strings.Contains(err.Error(), "AG limit") {
				t.Fatalf("%s of an invalid config: err %v, want the rejected AG limit", tc.name, err)
			}
		})
	}
}

// The JSON artifact round-trips, and a fault-free report holds no schedule
// or ledger key.
func TestReportJSONRoundTrip(t *testing.T) {
	spec := smokeSpec()
	spec.Benchmarks = Adversaries()[:1]
	spec.Systems = []machine.SystemKind{machine.TSOPER}
	spec.Points = 5
	out := roundTrip(t, spec)
	for _, key := range ledgerKeys {
		if bytes.Contains(out, []byte(`"`+key+`"`)) {
			t.Errorf("fault-free report holds key %q", key)
		}
	}
}

// ledgerKeys are the report keys that only a campaign with a schedule axis
// writes.
var ledgerKeys = []string{"schedule", "drain_cycles", "overhead_pct", "counts", "faults_injected", "recoveries"}

// roundTrip runs spec, checks that its JSON report decodes to an equal
// Report and returns the JSON.
func roundTrip(t *testing.T, spec Spec) []byte {
	t.Helper()
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, report) {
		t.Fatalf("round trip lost data:\n%+v\nvs\n%+v", back, *report)
	}
	return buf.Bytes()
}

func resilienceSpec() Spec {
	return Spec{
		Name:       "resilience",
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

// A campaign with a schedule axis is validated like any other, and each of
// its schedules must be a valid fault plan.
func TestResilienceValidation(t *testing.T) {
	spec := resilienceSpec()
	spec.Benchmarks = nil
	if _, err := Run(spec); err == nil {
		t.Fatal("spec without benchmarks accepted")
	}
	spec = resilienceSpec()
	spec.Systems = []machine.SystemKind{machine.Baseline}
	if _, err := Run(spec); err == nil {
		t.Fatal("non-strict system accepted")
	}
	spec = resilienceSpec()
	spec.Points = 0
	if _, err := Run(spec); err == nil {
		t.Fatal("zero crash-point budget accepted")
	}
	spec = resilienceSpec()
	spec.Schedules = []faultplan.Spec{{NVM: faultplan.NVMSpec{WriteFailPct: 7}}}
	if _, err := Run(spec); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

// The JSON artifact of a campaign with a schedule axis round-trips and
// carries each tuple's schedule and fault ledger.
func TestResilienceJSONRoundTrip(t *testing.T) {
	spec := resilienceSpec()
	spec.Schedules = spec.Schedules[:1]
	spec.Points = 2
	out := roundTrip(t, spec)
	for _, key := range ledgerKeys {
		if !bytes.Contains(out, []byte(`"`+key+`"`)) {
			t.Errorf("report under a schedule lacks key %q", key)
		}
	}
}

// A campaign with a schedule axis gives each workload x system a fault-free
// tuple and one per schedule. Under every schedule faults are injected and
// recovered, with no stall, no lost persist and every recovered crash state
// checker-accepted, and the overhead against the fault-free tuple is
// measured.
func TestResilienceCampaignClean(t *testing.T) {
	spec := resilienceSpec()
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("campaign not clean: %s", report.Summary())
	}
	if report.FaultsInjected == 0 || report.Recoveries == 0 {
		t.Fatalf("campaign injected or recovered nothing: %s", report.Summary())
	}
	if report.Injections != 3*4 || len(report.Tuples) != 3 {
		t.Fatalf("%d injections over %d tuples, want 12 over 3 (fault-free + 2 schedules, 4 points each)",
			report.Injections, len(report.Tuples))
	}
	if report.PartialStates == 0 {
		t.Fatal("campaign never caught the machine mid-persist")
	}
	clean := report.Tuples[0]
	if clean.Schedule != "" || clean.Counts != nil || clean.DrainCycles == 0 {
		t.Fatalf("first tuple %+v, want the fault-free baseline with its drain horizon", clean)
	}
	for i, ts := range report.Tuples[1:] {
		if want := spec.Schedules[i].Name; ts.Schedule != want {
			t.Fatalf("tuple %d runs under %q, want %q", i+1, ts.Schedule, want)
		}
		if ts.DrainCycles < clean.DrainCycles {
			t.Fatalf("%s drains faster under faults: %d < %d", ts.Schedule, ts.DrainCycles, clean.DrainCycles)
		}
		if want := 100 * (float64(ts.DrainCycles) - float64(clean.DrainCycles)) / float64(clean.DrainCycles); ts.OverheadPct != want {
			t.Fatalf("%s overhead %v%%, want %v%%", ts.Schedule, ts.OverheadPct, want)
		}
		if ts.Counts == nil || ts.Counts.Injected() == 0 {
			t.Fatalf("%s injected nothing", ts.Schedule)
		}
	}
}

// Determinism across worker counts: the simulations are single-threaded and
// every tuple is seeded, so serial and parallel execution agree exactly.
func TestResilienceDeterministicAcrossWorkers(t *testing.T) {
	serial := resilienceSpec()
	serial.Parallel = 1
	parallel := resilienceSpec()
	parallel.Parallel = 8
	a, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverged across worker counts:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

// An abandonment schedule must surface as a dirty report (a stall or lost
// persists), never as a hang, a campaign error or silent success.
func TestResilienceCatchesAbandonment(t *testing.T) {
	spec := resilienceSpec()
	spec.Points = 2
	spec.Schedules = []faultplan.Spec{{
		Name: "abandon", Seed: 13,
		NVM: faultplan.NVMSpec{WriteFailPct: 0.6},
		Resilience: faultplan.Resilience{
			NVMRetryLimit: 1, NVMBackoff: 8, DisableDegradation: true,
		},
	}}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatalf("abandonment schedule reported clean: %s", report.Summary())
	}
	for _, v := range report.Violations {
		if v.Schedule != "abandon" || (v.Rule != "stall" && v.Rule != "lost") || v.Violation == "" {
			t.Fatalf("violation %+v, want a detailed stall or loss under abandon", v)
		}
	}
	if ts := report.Tuples[1]; ts.Violations == 0 || ts.DrainCycles != 0 {
		t.Fatalf("abandon tuple %+v, want violations and no drain horizon", ts)
	}
}

// Workload-VM programs are first-class campaign subjects: a sweep over
// library programs must recover to consistent cuts at every harvested
// crash point, catch the machine mid-persist, and stay deterministic
// across worker counts.
func TestProgramCampaignClean(t *testing.T) {
	var progs []*program.Program
	for _, name := range []string{"producer-consumer-ring", "log-structured-writer"} {
		p, err := program.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	spec := Spec{
		Name:     "programs",
		Programs: progs,
		Systems:  []machine.SystemKind{machine.TSOPER},
		Seed:     42,
		Points:   25,
		Parallel: 4,
		Detail:   true,
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Violations) > 0 {
		t.Fatalf("program campaign found violations:\n%s", report.Violations[0].Violation)
	}
	if report.Injections < 2*25 {
		t.Fatalf("program campaign ran %d injections, want >= 50", report.Injections)
	}
	if report.PartialStates == 0 {
		t.Fatal("program campaign never caught the machine mid-persist")
	}
	for _, ts := range report.Tuples {
		if ts.Benchmark != "producer-consumer-ring" && ts.Benchmark != "log-structured-writer" {
			t.Fatalf("unexpected tuple name %q", ts.Benchmark)
		}
	}

	// Worker count must not leak into the artifact: serial == parallel.
	serial := spec
	serial.Parallel = 1
	again, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := report.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := again.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("program campaign report depends on worker count")
	}
}

// Programs that cannot compile for the campaign's machine shape are
// rejected up front, not mid-campaign.
func TestProgramCampaignRejectsUnfit(t *testing.T) {
	wide := &program.Program{Version: program.Version, Name: "too-wide"}
	for i := 0; i < 16; i++ { // Table I machines have 8 cores
		wide.Cores = append(wide.Cores, program.CoreProg{Instrs: []program.Instr{{Op: program.OpFence}}})
	}
	spec := Spec{
		Name:     "unfit",
		Programs: []*program.Program{wide},
		Systems:  []machine.SystemKind{machine.TSOPER},
		Points:   5,
	}
	if _, err := Run(spec); err == nil {
		t.Fatal("16-core program accepted for an 8-core machine")
	}
}
