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
	// any explicit Config, so it also overrides its Coherence field.
	Protocol machine.CoherenceKind
	// Timeout, when positive, arms the machine stall watchdog with this
	// progress horizon (in simulation cycles) on every run, so a wedged
	// simulation fails with a StallError instead of hanging its worker
	// forever. It overrides Config.WatchdogHorizon.
	Timeout sim.Time
}

// DefaultOptions returns full-scale, deterministic options.
func DefaultOptions() Options {
	return Options{Scale: 1.0, Seed: 42}
}

func (o Options) benchmarks() []trace.Profile {
	all := trace.Benchmarks()
	if len(o.Benchmarks) == 0 {
		return all
	}
	var out []trace.Profile
	for _, name := range o.Benchmarks {
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

// RunOne simulates one benchmark under one system with the Table I
// configuration.
func RunOne(bench trace.Profile, kind machine.SystemKind, o Options) *machine.Results {
	return RunConfig(bench, machine.TableI(kind), o)
}

// RunConfig simulates one benchmark under an explicit configuration. It
// panics on configuration errors and wedged runs — the job-shaped
// RunConfigChecked returns those as errors instead.
func RunConfig(bench trace.Profile, cfg machine.Config, o Options) *machine.Results {
	r, err := RunConfigChecked(bench, cfg, o)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return r
}

// RunOneChecked is the job-shaped RunOne: configuration errors and wedged
// runs (watchdog stalls, deadlocks) come back as errors, so a long-lived
// worker can fail one job without dying.
func RunOneChecked(bench trace.Profile, kind machine.SystemKind, o Options) (*machine.Results, error) {
	return RunConfigChecked(bench, machine.TableI(kind), o)
}

// RunConfigChecked is the job-shaped RunConfig. With Options.Timeout set it
// arms the stall watchdog, bounding how long a wedged simulation can hold a
// worker.
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

// Cell identifies one simulation in a sweep.
type Cell struct {
	Bench  trace.Profile
	System machine.SystemKind
}

// RunMatrix simulates every benchmark × system pair on Options.Workers
// workers (each machine is fully independent and deterministic).
func RunMatrix(benches []trace.Profile, systems []machine.SystemKind, o Options) map[string]map[machine.SystemKind]*machine.Results {
	type job struct {
		cell Cell
		res  *machine.Results
	}
	jobs := make([]job, 0, len(benches)*len(systems))
	for _, b := range benches {
		for _, s := range systems {
			jobs = append(jobs, job{cell: Cell{Bench: b, System: s}})
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				jobs[i].res = RunOne(jobs[i].cell.Bench, jobs[i].cell.System, o)
			}
		}()
	}
	for i := range jobs {
		ch <- i
	}
	close(ch)
	wg.Wait()

	out := make(map[string]map[machine.SystemKind]*machine.Results)
	for _, j := range jobs {
		name := j.cell.Bench.Name
		if out[name] == nil {
			out[name] = make(map[machine.SystemKind]*machine.Results)
		}
		out[name][j.cell.System] = j.res
	}
	return out
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
