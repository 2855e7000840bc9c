// Package harness regenerates every table and figure of the paper's
// evaluation (§V): Figure 11 (execution time vs. baseline), Figure 12 (the
// BSP stepping stones), Figure 13 (AG-size cumulative histogram), Figure 14
// (coherence vs. persistence write traffic), Figure 15 (ocean_cp SFR/AG
// size behavior), the §V-B sharing-list length statistics, the Table I
// configuration, the SLICC protocol-complexity comparison, and the ablation
// sweeps DESIGN.md calls out (AGB sizing, eviction-buffer depth, AGB
// organization, BSP epoch size).
package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options controls experiment scale and reproducibility.
type Options struct {
	// Scale multiplies each benchmark's OpsPerCore (1.0 = full size).
	Scale float64
	// Seed drives workload generation.
	Seed int64
	// Benchmarks restricts the run (nil = the full 22-benchmark roster).
	Benchmarks []string
	// Workers is the simulation worker count (<= 0 means GOMAXPROCS).
	// Results do not depend on it.
	Workers int
	// Protocol selects the coherence backend (default SLC). Applied after
	// any explicit Config, so it also overrides its Coherence field. The
	// experiments that compare backends, SLCOverhead and ProtocolBakeoff,
	// set their own and ignore it.
	Protocol machine.CoherenceKind
	// Timeout, when positive, arms the machine stall watchdog with this
	// progress horizon (in simulation cycles) on every run, so a wedged
	// simulation fails with a StallError instead of hanging its worker
	// forever. It overrides Config.WatchdogHorizon.
	Timeout sim.Time
}

// Experiment is one entry of the paper's evaluation: its name and the run
// that renders its table or figure.
type Experiment struct {
	Name string
	Run  func(Options) fmt.Stringer
}

// Experiments returns the evaluation in `tsoper-experiments -exp all`
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"tableI", func(Options) fmt.Stringer { return text(TableIText()) }},
		{"protocol", func(Options) fmt.Stringer { return text(ProtocolComplexityText()) }},
		{"fig11", func(o Options) fmt.Stringer { return Figure11(o) }},
		{"fig12", func(o Options) fmt.Stringer { return Figure12(o) }},
		{"fig13", func(o Options) fmt.Stringer { return Figure13(o) }},
		{"fig14", func(o Options) fmt.Stringer { return Figure14(o) }},
		{"fig15", func(o Options) fmt.Stringer { return Figure15(o) }},
		{"lists", func(o Options) fmt.Stringer { return Lists(o) }},
		{"agbsweep", func(o Options) fmt.Stringer { return AGBSweep(o) }},
		{"evict", func(o Options) fmt.Stringer { return EvictSweep(o) }},
		{"agborg", func(o Options) fmt.Stringer { return AGBOrganizations(o) }},
		{"epochs", func(o Options) fmt.Stringer { return BSPEpochSweep(o) }},
		{"whisper", func(o Options) fmt.Stringer { return Whisper(o) }},
		{"slccost", func(o Options) fmt.Stringer { return SLCOverhead(o) }},
		{"protocols", func(o Options) fmt.Stringer { return ProtocolBakeoff(o) }},
	}
}

// text is a rendered table that needs no simulation.
type text string

func (t text) String() string { return string(t) }

// benchmarks resolves Options.Benchmarks against the roster. With none set
// it returns the named defaults, or the full 22-benchmark roster when no
// defaults are named.
func (o Options) benchmarks(defaults ...string) []trace.Profile {
	names := o.Benchmarks
	if len(names) == 0 {
		if len(defaults) == 0 {
			return trace.Benchmarks()
		}
		names = defaults
	}
	var out []trace.Profile
	for _, name := range names {
		if p, ok := trace.ByName(name); ok {
			out = append(out, p)
		}
	}
	return out
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// RunConfigChecked simulates one benchmark under an explicit configuration,
// returning configuration errors and wedged runs (watchdog stalls,
// deadlocks) as errors, so a long-lived worker can fail one job without
// dying. With Options.Timeout set it arms the stall watchdog, bounding how
// long a wedged simulation can hold a worker.
func RunConfigChecked(bench trace.Profile, cfg machine.Config, o Options) (*machine.Results, error) {
	cfg = o.override(cfg)
	w := trace.Generate(bench.Scale(o.scale()), cfg.Cores, o.Seed)
	return RunWorkload(cfg, w)
}

// override applies the options that take precedence over an explicit
// configuration: Protocol and Timeout.
func (o Options) override(cfg machine.Config) machine.Config {
	if o.Protocol != machine.CoherenceSLC {
		cfg.Coherence = o.Protocol
	}
	if o.Timeout > 0 {
		cfg.WatchdogHorizon = o.Timeout
	}
	return cfg
}

// RunWorkload simulates one workload on a fresh machine to completion,
// including the end-of-run persist flush. Errors come back unwrapped, as
// the machine reports them.
func RunWorkload(cfg machine.Config, w *trace.Workload) (*machine.Results, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.RunChecked(w)
}

// grid simulates every benchmark under every configuration on
// Options.Workers goroutines and returns res[i][j], benches[i] under
// cfgs[j]. Each machine is independent and deterministic, so the results
// do not depend on the worker count. A cell that fails panics on the
// caller's goroutine once every cell has finished, naming its benchmark and
// system.
func grid(o Options, benches []trace.Profile, cfgs ...machine.Config) [][]*machine.Results {
	res := make([][]*machine.Results, len(benches))
	for i := range res {
		res[i] = make([]*machine.Results, len(cfgs))
	}
	errs := make([]error, len(benches)*len(cfgs))
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	cells := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				i, j := c/len(cfgs), c%len(cfgs)
				res[i][j], errs[c] = RunConfigChecked(benches[i], cfgs[j], o)
			}
		}()
	}
	for c := range errs {
		cells <- c
	}
	close(cells)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("harness: %s on %v: %v", benches[c/len(cfgs)].Name, cfgs[c%len(cfgs)].System, err))
		}
	}
	return res
}

// tableI returns the Table I configuration of each system.
func tableI(systems ...machine.SystemKind) []machine.Config {
	cfgs := make([]machine.Config, len(systems))
	for i, s := range systems {
		cfgs[i] = machine.TableI(s)
	}
	return cfgs
}

// geomean-free mean matching the paper's "on average" phrasing.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxF(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
