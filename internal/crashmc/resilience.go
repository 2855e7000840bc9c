package crashmc

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/checker"
	"repro/internal/faultplan"
	"repro/internal/machine"
	"repro/internal/trace"
)

// ResilienceSpec configures a runtime fault-injection campaign: every
// benchmark x system tuple, on the system's Table I machine, runs once clean
// (the overhead baseline), once under each fault schedule end to end (the
// run must complete — every injected fault retried to success or degraded
// around, zero watchdog stalls), and Points more times per schedule with a
// crash cut short of completion, asserting the checker accepts every
// recovered state even while the machine is mid-recovery from injected
// faults.
type ResilienceSpec struct {
	// Name labels the JSON artifact.
	Name string
	// Benchmarks and Systems form the tuple grid. Systems must be strict
	// (STW or TSOPER) — the checker refuses anything else.
	Benchmarks []trace.Profile
	Systems    []machine.SystemKind
	// Schedules are the fault plans exercised per tuple (default: every
	// faultplan preset).
	Schedules []faultplan.Spec
	// Scale multiplies each profile's OpsPerCore (<= 0 means 1.0).
	Scale float64
	// Seed drives workload generation (schedule randomness is seeded by
	// each schedule itself, so the workload is identical across schedules).
	Seed int64
	// Points is the crash-point budget per tuple x schedule cell.
	Points int
	// Parallel is the worker count (<= 0 means GOMAXPROCS).
	Parallel int
}

func (s ResilienceSpec) scale() float64 {
	if s.Scale <= 0 {
		return 1.0
	}
	return s.Scale
}

func (s ResilienceSpec) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ResilienceIncident is one failed assertion: a watchdog stall, a lost
// persist, or a checker rejection of a recovered state.
type ResilienceIncident struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	Schedule  string `json:"schedule"`
	// At is the crash cycle (0 for the full run).
	At uint64 `json:"at"`
	// Kind is "stall", "lost", or "violation".
	Kind string `json:"kind"`
	// Detail is the stall diagnostic or checker message.
	Detail string `json:"detail"`
	// Rule is the violated checker rule, when Kind is "violation".
	Rule string `json:"rule,omitempty"`
}

// ResilienceCell aggregates one benchmark x system x schedule cell.
type ResilienceCell struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	Schedule  string `json:"schedule"`
	// BaselineCycles and FaultedCycles are the full-run drain horizons
	// without and with the schedule; OverheadPct is the slowdown the
	// recovery machinery (retries, retransmissions, rerouting) cost.
	BaselineCycles uint64  `json:"baseline_cycles"`
	FaultedCycles  uint64  `json:"faulted_cycles"`
	OverheadPct    float64 `json:"overhead_pct"`
	// Counts is the full-run injection and recovery ledger.
	Counts faultplan.Counts `json:"counts"`
	// Points counts crash injections; Partial the partially-durable states
	// among them.
	Points  int `json:"points"`
	Partial int `json:"partial"`
	// Stalls, Lost, Violations count failed assertions (all must be zero).
	Stalls     int                  `json:"stalls"`
	Lost       uint64               `json:"lost"`
	Violations int                  `json:"violations"`
	Incidents  []ResilienceIncident `json:"incidents,omitempty"`
}

// ResilienceReport is the campaign artifact written for CI.
type ResilienceReport struct {
	Name  string  `json:"name"`
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Injections counts faults injected across every run; Recoveries the
	// recovery actions (retries, retransmissions, redirects) taken.
	Injections uint64 `json:"injections"`
	Recoveries uint64 `json:"recoveries"`
	// CrashPoints counts crash injections; PartialStates the ones that
	// caught the machine mid-persist.
	CrashPoints   int `json:"crash_points"`
	PartialStates int `json:"partial_states"`
	// Stalls, Lost and Violations aggregate the per-cell failure counts.
	Stalls     int    `json:"stalls"`
	Lost       uint64 `json:"lost"`
	Violations int    `json:"violations"`

	Cells []*ResilienceCell `json:"cells"`
}

// Clean reports whether every assertion held: no stalls, no lost persists,
// no checker violations.
func (r *ResilienceReport) Clean() bool {
	return r.Stalls == 0 && r.Lost == 0 && r.Violations == 0
}

// Summary renders a one-line human digest.
func (r *ResilienceReport) Summary() string {
	return fmt.Sprintf("%s: %d faults injected, %d recovery actions, %d crash points (%d partial), %d stalls, %d lost, %d violations",
		r.Name, r.Injections, r.Recoveries, r.CrashPoints, r.PartialStates, r.Stalls, r.Lost, r.Violations)
}

// WriteJSON writes the indented artifact.
func (r *ResilienceReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteJSONFile writes the artifact to path.
func (r *ResilienceReport) WriteJSONFile(path string) error { return writeJSONFile(path, r) }

// RunResilience executes the campaign. Simulations are fully deterministic,
// so the report is identical for identical specs regardless of worker count.
func RunResilience(spec ResilienceSpec) (*ResilienceReport, error) {
	if len(spec.Benchmarks) == 0 || len(spec.Systems) == 0 {
		return nil, errors.New("crashmc: resilience campaign needs at least one benchmark and one system")
	}
	if spec.Points <= 0 {
		return nil, errors.New("crashmc: resilience campaign needs a positive crash-point budget")
	}
	for _, k := range spec.Systems {
		if k != machine.STW && k != machine.TSOPER {
			return nil, fmt.Errorf("crashmc: %v does not claim strict TSO persistency", k)
		}
	}
	if len(spec.Schedules) == 0 {
		spec.Schedules = faultplan.Presets()
	}
	for _, sch := range spec.Schedules {
		if err := sch.Validate(); err != nil {
			return nil, fmt.Errorf("crashmc: %w", err)
		}
	}

	// Baselines: one clean full run per benchmark x system tuple.
	type pair struct {
		bench  trace.Profile
		system machine.SystemKind
	}
	var pairs []pair
	for _, b := range spec.Benchmarks {
		for _, k := range spec.Systems {
			pairs = append(pairs, pair{b.Scale(spec.scale()), k})
		}
	}
	baseline := make([]uint64, len(pairs))
	baseErr := make([]error, len(pairs))
	runParallel(len(pairs), spec.workers(), func(i int) {
		cfg := machine.TableI(pairs[i].system)
		m, err := machine.New(cfg)
		if err != nil {
			baseErr[i] = err
			return
		}
		r, err := m.RunChecked(trace.Generate(pairs[i].bench, cfg.Cores, spec.Seed))
		if err != nil {
			baseErr[i] = err
			return
		}
		baseline[i] = uint64(r.DrainCycles)
	})
	for _, err := range baseErr {
		if err != nil {
			return nil, fmt.Errorf("crashmc: baseline run: %w", err)
		}
	}

	// Cells: each schedule against each tuple, crash points included.
	cells := make([]*ResilienceCell, 0, len(pairs)*len(spec.Schedules))
	type cellJob struct {
		pair     pair
		baseline uint64
		schedule faultplan.Spec
		cell     *ResilienceCell
	}
	var jobs []cellJob
	for i, p := range pairs {
		for _, sch := range spec.Schedules {
			c := &ResilienceCell{
				Benchmark:      p.bench.Name,
				System:         p.system.String(),
				Schedule:       sch.Name,
				BaselineCycles: baseline[i],
			}
			cells = append(cells, c)
			jobs = append(jobs, cellJob{p, baseline[i], sch, c})
		}
	}
	runParallel(len(jobs), spec.workers(), func(i int) {
		spec.runCell(jobs[i].pair.bench, jobs[i].pair.system, jobs[i].schedule, jobs[i].cell)
	})

	r := &ResilienceReport{Name: spec.Name, Seed: spec.Seed, Scale: spec.scale(), Cells: cells}
	for _, c := range cells {
		r.Injections += c.Counts.Injected()
		r.Recoveries += c.Counts.NVMRetries + c.Counts.NoCRetransmits + c.Counts.NoCEscalations + c.Counts.AGBRedirects
		r.CrashPoints += c.Points
		r.PartialStates += c.Partial
		r.Stalls += c.Stalls
		r.Lost += c.Lost
		r.Violations += c.Violations
	}
	return r, nil
}

// runCell executes one benchmark x system x schedule cell: the full faulted
// run plus Points crash injections spread uniformly over its horizon.
func (spec ResilienceSpec) runCell(bench trace.Profile, kind machine.SystemKind, sch faultplan.Spec, c *ResilienceCell) {
	cfg := machine.TableI(kind)
	cfg.Faults = &sch

	fail := func(at uint64, kindName, detail, rule string) {
		c.Incidents = append(c.Incidents, ResilienceIncident{
			Benchmark: c.Benchmark, System: c.System, Schedule: c.Schedule,
			At: at, Kind: kindName, Detail: detail, Rule: rule,
		})
		switch kindName {
		case "stall":
			c.Stalls++
		case "violation":
			c.Violations++
		}
	}

	// Full run: must complete — every fault recovered, watchdog silent.
	m, err := machine.New(cfg)
	if err != nil {
		fail(0, "violation", err.Error(), "")
		return
	}
	w := trace.Generate(bench, cfg.Cores, spec.Seed)
	res, err := m.RunChecked(w)
	if err != nil {
		var st *machine.StallError
		if errors.As(err, &st) {
			fail(0, "stall", err.Error(), "")
		} else {
			fail(0, "violation", err.Error(), "")
		}
		c.Counts = m.FaultCounts()
		c.Lost += c.Counts.Lost()
		return
	}
	c.FaultedCycles = uint64(res.DrainCycles)
	if res.Faults != nil {
		c.Counts = *res.Faults
	}
	if lost := c.Counts.Lost(); lost > 0 {
		c.Lost += lost
		fail(0, "lost", fmt.Sprintf("%d persists abandoned: %s", lost, c.Counts), "")
	}
	if c.BaselineCycles > 0 {
		c.OverheadPct = 100 * (float64(c.FaultedCycles) - float64(c.BaselineCycles)) / float64(c.BaselineCycles)
	}

	// Crash points: uniform over the faulted horizon, endpoints excluded.
	// They ascend, so one sweep advances through them all.
	points := make([]uint64, spec.Points)
	for i := range points {
		points[i] = max(c.FaultedCycles*uint64(i+1)/uint64(spec.Points+1), 1)
	}
	err = Sweep(cfg, trace.Generate(bench, cfg.Cores, spec.Seed), points, func(i int, cs *machine.CrashState) {
		at := points[i]
		c.Points++
		if d := cs.DurableGroups(); d > 0 && d < len(cs.Groups) {
			c.Partial++
		}
		if cs.Stalled {
			fail(at, "stall", cs.Stall.Error(), "")
		}
		if lost := cs.FaultCounts.Lost(); lost > 0 {
			c.Lost += lost
			fail(at, "lost", fmt.Sprintf("%d persists abandoned at crash: %s", lost, cs.FaultCounts), "")
		}
		if err := checker.Check(cs); err != nil {
			rule := ""
			var v *checker.Violation
			if errors.As(err, &v) {
				rule = v.Rule
			}
			fail(at, "violation", err.Error(), rule)
		}
	})
	if err != nil {
		fail(0, "violation", err.Error(), "")
	}
}
