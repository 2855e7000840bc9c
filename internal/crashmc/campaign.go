package crashmc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/checker"
	"repro/internal/faultplan"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/trace"
)

// Strategy names how a campaign chooses its crash points. There is one:
// StrategyEvents harvests up to Points persistency-transition cycles of an
// instrumented run (plus their successors) and, when the harvest is
// smaller, tops up with distinct seeded random cycles of the run's horizon
// that the harvest missed.
type Strategy uint8

// StrategyEvents is the zero Strategy and the only one Run accepts.
const StrategyEvents Strategy = 0

func (s Strategy) String() string {
	if s == StrategyEvents {
		return "events"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Spec configures one campaign.
type Spec struct {
	// Name labels the JSON artifact.
	Name string
	// Benchmarks and Systems form the tuple grid. Systems must be strict
	// (STW or TSOPER) — the checker refuses anything else.
	Benchmarks []trace.Profile
	Systems    []machine.SystemKind
	// Programs adds workload-VM programs to the tuple grid alongside the
	// profile benchmarks. Each is compiled for the tuple's machine shape
	// with the campaign seed (Scale does not apply — programs size
	// themselves), then crash-swept exactly like a profile workload.
	Programs []*program.Program
	// Scale multiplies each profile's OpsPerCore (<= 0 means 1.0).
	Scale float64
	// Seed drives workload generation and the top-up random sweeps.
	Seed int64
	// Points is the crash-point budget per benchmark x system tuple.
	Points int
	// Strategy must be StrategyEvents (the zero value); Run rejects any
	// other.
	Strategy Strategy
	// Parallel is the worker count (<= 0 means GOMAXPROCS).
	Parallel int
	// Shrink minimizes each failing case before reporting it.
	Shrink bool
	// Detail retains every injection (not just the violating ones) in the
	// report, for per-crash-point output and richer artifacts.
	Detail bool
	// Coherence selects the coherence backend for every tuple (default
	// SLC); it applies after Config, overriding its Coherence field.
	Coherence machine.CoherenceKind
	// Config overrides the per-system machine configuration (nil: Table I).
	// A CrashFault it sets corrupts every recovered state (mutation
	// campaigns).
	Config func(machine.SystemKind) machine.Config
	// Schedules adds a fault-plan axis: each workload x system gets its
	// fault-free tuple plus one tuple per schedule, which runs under that
	// plan (it applies after Config, replacing its Faults). The report then
	// gives each tuple its harvest run's drain horizon, and each scheduled
	// tuple that run's fault ledger and its overhead against the fault-free
	// tuple. A stall or a lost persist is a violation.
	Schedules []faultplan.Spec

	// replay, set only by tests, runs the reference execution, Replay: one
	// fresh machine from cycle 0 per crash point. Run otherwise uses Sweep,
	// which shares one machine per ascending chunk of crash points: the
	// same deterministic injections at a fraction of the simulated cycles.
	replay bool
}

func (s Spec) scale() float64 {
	if s.Scale <= 0 {
		return 1.0
	}
	return s.Scale
}

func (s Spec) config(kind machine.SystemKind) machine.Config {
	cfg := machine.TableI(kind)
	if s.Config != nil {
		cfg = s.Config(kind)
	}
	if s.Coherence != machine.CoherenceSLC {
		cfg.Coherence = s.Coherence
	}
	return cfg
}

func (s Spec) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// tuple is one workload x system x schedule cell with its resolved crash
// points. The workload is a scaled profile benchmark or a compiled program,
// never both.
type tuple struct {
	name     string
	bench    trace.Profile    // profile tuples: already scaled
	prog     *program.Program // program tuples
	system   machine.SystemKind
	schedule string // the fault plan's name; "" for the fault-free tuple
	cfg      machine.Config
	points   []uint64
	// The harvest run's outcome: its drain horizon and fault ledger, and
	// the violation that reports it when it stalled or lost persists.
	drain  uint64
	counts faultplan.Counts
	wedged *Injection
}

// workload materializes the tuple's deterministic op streams for a machine
// configuration.
func (tp *tuple) workload(cfg machine.Config, seed int64) *trace.Workload {
	if tp.prog != nil {
		w, err := tp.prog.Compile(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}, seed)
		if err != nil {
			// Spec validation compiled the program once already, so a
			// failure here is a campaign-construction bug, not user input.
			panic("crashmc: " + err.Error())
		}
		return w
	}
	return trace.Generate(tp.bench, cfg.Cores, seed)
}

// Run executes the campaign: resolves crash points per tuple (the probed
// harvest runs execute in parallel too), sweeps them over the worker pool,
// and aggregates the artifact. Simulations are fully deterministic, so the
// report is identical for identical specs regardless of worker count. A
// configuration machine.New rejects, or a harvest run that deadlocks, fails
// the campaign with an error; a harvest run that stalls or loses persists
// is a reported violation.
func Run(spec Spec) (*Report, error) {
	if len(spec.Benchmarks)+len(spec.Programs) == 0 || len(spec.Systems) == 0 {
		return nil, errors.New("crashmc: campaign needs at least one workload and one system")
	}
	if spec.Points <= 0 {
		return nil, errors.New("crashmc: campaign needs a positive crash-point budget")
	}
	if spec.Strategy != StrategyEvents {
		return nil, fmt.Errorf("crashmc: unknown crash-point strategy %v", spec.Strategy)
	}
	for _, k := range spec.Systems {
		if k != machine.STW && k != machine.TSOPER {
			return nil, fmt.Errorf("crashmc: %v does not claim strict TSO persistency", k)
		}
	}
	for _, sch := range spec.Schedules {
		if err := sch.Validate(); err != nil {
			return nil, fmt.Errorf("crashmc: %w", err)
		}
	}

	var tuples []*tuple
	// grid adds a workload x system's fault-free tuple and its scheduled ones.
	grid := func(tp tuple) {
		tuples = append(tuples, &tp)
		for i := range spec.Schedules {
			scheduled := tp
			scheduled.schedule = spec.Schedules[i].Name
			scheduled.cfg.Faults = &spec.Schedules[i]
			tuples = append(tuples, &scheduled)
		}
	}
	for _, b := range spec.Benchmarks {
		for _, k := range spec.Systems {
			scaled := b.Scale(spec.scale())
			grid(tuple{name: scaled.Name, bench: scaled, system: k, cfg: spec.config(k)})
		}
	}
	for _, p := range spec.Programs {
		for _, k := range spec.Systems {
			cfg := spec.config(k)
			// Reject unrunnable programs up front (validation and machine
			// fit) so worker goroutines never see a compile failure.
			if _, err := p.Compile(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}, spec.Seed); err != nil {
				return nil, fmt.Errorf("crashmc: %w", err)
			}
			grid(tuple{name: p.Name, prog: p, system: k, cfg: cfg})
		}
	}
	resolveErrs := make([]error, len(tuples))
	runParallel(len(tuples), spec.workers(), func(i int) {
		resolveErrs[i] = spec.resolvePoints(tuples[i], int64(i))
	})
	if err := firstError(resolveErrs); err != nil {
		return nil, err
	}

	type job struct {
		tuple *tuple
		at    uint64
	}
	var jobs []job
	for _, tp := range tuples {
		for _, at := range tp.points {
			jobs = append(jobs, job{tp, at})
		}
	}

	// Per tuple, sort the crash points and split them into contiguous
	// ascending chunks; Sweep runs one machine per chunk through its
	// points. Replay restarts from cycle 0 at every point anyway, so it runs
	// over one-point chunks, as parallel as the fork. The injections land at
	// their original indices, so the report is the same either way.
	sweep, perTuple := Sweep, max(spec.workers()/len(tuples), 1)
	if spec.replay {
		sweep, perTuple = Replay, len(jobs)
	}
	var chunks [][]int
	base := 0
	for _, tp := range tuples {
		idxs := make([]int, len(tp.points))
		for i := range idxs {
			idxs[i] = base + i
		}
		base += len(tp.points)
		sort.Slice(idxs, func(a, b int) bool { return jobs[idxs[a]].at < jobs[idxs[b]].at })
		chunks = append(chunks, splitChunks(idxs, perTuple)...)
	}
	injections := make([]Injection, len(jobs))
	sweepErrs := make([]error, len(chunks))
	runParallel(len(chunks), spec.workers(), func(ci int) {
		idxs := chunks[ci]
		tp := jobs[idxs[0]].tuple
		points := make([]uint64, len(idxs))
		for k, ji := range idxs {
			points[k] = jobs[ji].at
		}
		sweepErrs[ci] = sweep(tp.cfg, tp.workload(tp.cfg, spec.Seed), points, func(k int, cs *machine.CrashState) {
			injections[idxs[k]] = spec.evaluate(tp, points[k], cs)
		})
	})
	if err := firstError(sweepErrs); err != nil {
		return nil, err
	}
	return spec.assemble(tuples, injections), nil
}

// firstError wraps the first non-nil error of a parallel stage.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("crashmc: %w", err)
		}
	}
	return nil
}

// splitChunks partitions idxs (already sorted by crash cycle) into at most n
// contiguous chunks of near-equal size.
func splitChunks(idxs []int, n int) [][]int {
	if n > len(idxs) {
		n = len(idxs)
	}
	if n <= 1 {
		if len(idxs) == 0 {
			return nil
		}
		return [][]int{idxs}
	}
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(idxs)/n, (i+1)*len(idxs)/n
		if lo < hi {
			out = append(out, idxs[lo:hi])
		}
	}
	return out
}

// resolvePoints harvests up to Points transition cycles of the tuple's
// workload and tops up with distinct seeded random cycles of its horizon
// that the harvest missed, setting the union, sorted, as the tuple's crash
// points; a run with fewer cycles than Points crashes at each of them once.
// idx decorrelates the random streams of different tuples. The harvest is a
// full run, so it also sets the tuple's outcome: the run's drain horizon and
// fault ledger, or, when it stalled or lost persists, the violation that
// reports it (the horizon is then the cycle the run stopped at).
func (spec Spec) resolvePoints(tp *tuple, idx int64) error {
	points, m, err := harvestRun(tp.cfg, tp.workload(tp.cfg, spec.Seed), spec.Points)
	if m == nil {
		return err
	}
	horizon := uint64(m.Now())
	tp.counts = m.FaultCounts()
	if err != nil {
		var stall *machine.StallError
		errors.As(err, &stall)
		rule, detail := recoveryFailure(stall, tp.counts)
		if rule == "" {
			return err
		}
		tp.wedged = &Injection{
			Benchmark: tp.name, System: tp.system.String(), Schedule: tp.schedule,
			Seed: spec.Seed, At: horizon, Violation: detail, Rule: rule,
		}
	} else {
		tp.drain = horizon
	}
	if missing := spec.Points - len(points); missing > 0 {
		points = append(points, topUp(points, horizon, missing, spec.Seed+idx*7919)...)
		slices.Sort(points)
	}
	tp.points = points
	return nil
}

// recoveryFailure names how a run broke the claim that every injected fault
// recovers, if it did: rule "stall" when the watchdog declared no progress,
// "lost" when the fault plan abandoned persists.
func recoveryFailure(stall *machine.StallError, counts faultplan.Counts) (rule, detail string) {
	switch {
	case stall != nil:
		return "stall", stall.Error()
	case counts.Lost() > 0:
		return "lost", fmt.Sprintf("%d persists abandoned: %s", counts.Lost(), counts)
	}
	return "", ""
}

// evaluate checks one recovered crash state and summarizes it.
func (spec Spec) evaluate(tp *tuple, at uint64, cs *machine.CrashState) Injection {
	cfg := tp.cfg
	inj := Injection{
		Benchmark: tp.name,
		System:    tp.system.String(),
		Schedule:  tp.schedule,
		Seed:      spec.Seed,
		At:        at,
		Groups:    len(cs.Groups),
		Durable:   cs.DurableGroups(),
	}
	inj.Partial = inj.Durable > 0 && inj.Durable < len(cs.Groups)
	if cfg.CrashFault != machine.FaultNone {
		inj.Fault = cfg.CrashFault.String()
		inj.FaultApplied = cs.FaultApplied
	}
	if err := checker.Check(cs); err != nil {
		inj.Violation = err.Error()
		var v *checker.Violation
		if errors.As(err, &v) {
			inj.Rule = v.Rule
		}
		// Shrinking re-generates candidate workloads from the profile on a
		// fault-free machine, so program tuples (the program JSON is
		// already the minimal reproducer to hand around) and tuples under a
		// fault plan report unshrunk.
		if spec.Shrink && tp.prog == nil && cfg.Faults == nil {
			f := Failure{
				Profile:          tp.bench,
				System:           tp.system.String(),
				Cores:            cfg.Cores,
				Seed:             spec.Seed,
				At:               at,
				Fault:            cfg.CrashFault.String(),
				Rule:             inj.Rule,
				AGBLinesPerSlice: cfg.AGB.LinesPerSlice,
				AGLimit:          cfg.AGLimit,
				EvictBufEntries:  cfg.EvictBufEntries,
			}
			if cfg.Coherence != machine.CoherenceSLC {
				f.Coherence = cfg.Coherence.String()
			}
			shrunk := Shrink(f)
			inj.Shrunk = &shrunk
		}
	} else if rule, detail := recoveryFailure(cs.Stall, cs.FaultCounts); rule != "" {
		inj.Violation, inj.Rule = detail, rule
	}
	return inj
}

func (spec Spec) assemble(tuples []*tuple, injections []Injection) *Report {
	r := &Report{
		Name:     spec.Name,
		Seed:     spec.Seed,
		Scale:    spec.scale(),
		Strategy: spec.Strategy.String(),
	}
	if spec.Coherence != machine.CoherenceSLC {
		r.Protocol = spec.Coherence.String()
	}
	if spec.Detail {
		r.Details = injections
	}
	// Injections are laid out tuple by tuple, in crash-point order.
	var baseline uint64
	for _, tp := range tuples {
		ts := &TupleSummary{Benchmark: tp.name, System: tp.system.String(), Points: len(tp.points)}
		r.Tuples = append(r.Tuples, ts)
		if len(spec.Schedules) > 0 {
			ts.Schedule, ts.DrainCycles = tp.schedule, tp.drain
			if tp.schedule == "" {
				baseline = tp.drain
			} else {
				ts.Counts = &tp.counts
				r.FaultsInjected += tp.counts.Injected()
				r.Recoveries += tp.counts.Recoveries()
				if baseline > 0 && tp.drain > 0 {
					ts.OverheadPct = 100 * (float64(tp.drain) - float64(baseline)) / float64(baseline)
				}
			}
		}
		if tp.wedged != nil {
			r.Violations = append(r.Violations, *tp.wedged)
			ts.Violations++
		}
		for _, inj := range injections[:len(tp.points)] {
			r.Injections++
			r.DurableGroups += inj.Durable
			if inj.Partial {
				r.PartialStates++
				ts.Partial++
			}
			if inj.Violation != "" {
				r.Violations = append(r.Violations, inj)
				ts.Violations++
			}
		}
		injections = injections[len(tp.points):]
	}
	return r
}

// runParallel executes fn(0..n-1) over a pool of workers.
func runParallel(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}
