package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// crashCampaign is tsoper-crash's checkpoint-compare campaign, the one CI
// times for the prefix-fork speedup (at -crashes 40 -parallel 4), scaled up
// tenfold: the four adversaries under TSOPER and STW on the pressure
// configuration, 400 event-harvested crash points per tuple (3,200
// injections), two workers, prefix-forked (incremental) mode.
type crashCampaign struct {
	spec        crashmc.Spec
	inputDigest string // the subject workloads, as every tuple generates them
}

func newCrashCampaign(seed int64, short bool) (*crashCampaign, error) {
	spec := crashmc.Spec{
		Name:       "checkpoint-compare",
		Benchmarks: crashmc.Adversaries(),
		Systems:    []machine.SystemKind{machine.TSOPER, machine.STW},
		Seed:       seed,
		Points:     400,
		Strategy:   crashmc.StrategyEvents,
		Parallel:   2,
		Detail:     true,
		Config:     crashmc.PressureConfig,
	}
	if short {
		spec.Benchmarks = spec.Benchmarks[:2]
		spec.Points, spec.Scale = 5, 0.1
	}
	w := &crashCampaign{spec: spec}
	var wls []*trace.Workload
	for _, b := range spec.Benchmarks {
		wls = append(wls, trace.Generate(b.Scale(w.scale()), spec.Config(machine.TSOPER).Cores, seed))
	}
	var err error
	w.inputDigest, err = digestWorkloads(wls...)
	return w, err
}

func (w *crashCampaign) inputs() string { return w.inputDigest }

// scale is the profile scale crashmc applies (0 means full size).
func (w *crashCampaign) scale() float64 {
	if w.spec.Scale <= 0 {
		return 1
	}
	return w.spec.Scale
}

func (w *crashCampaign) injections() int {
	return len(w.spec.Benchmarks) * len(w.spec.Systems) * w.spec.Points
}

func (w *crashCampaign) pass() (*passResult, error) {
	rep, err := crashmc.Run(w.spec)
	if err != nil {
		return nil, fmt.Errorf("crash_campaign: %w", err)
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("crash_campaign: %w", err)
	}
	res := &passResult{
		ops:    w.injections(),
		digest: sha256Hex(body),
		counts: map[string]float64{
			"injections": float64(rep.Injections),
			"partial":    float64(rep.PartialStates),
			"durable":    float64(rep.DurableGroups),
		},
	}
	if rep.Injections != res.ops {
		res.fail("campaign ran %d of %d injections", rep.Injections, res.ops)
	}
	for _, v := range rep.Violations {
		res.fail("violation %s/%s @%d: %s", v.Benchmark, v.System, v.At, v.Violation)
	}
	return res, nil
}

// crashTuple is one benchmark x system cell of the replica.
type crashTuple struct {
	bench  trace.Profile
	cfg    machine.Config
	points []uint64
	err    error
	// tallies of the chunk run
	injections, partial, durable, violations int
}

// trace replays crashmc.Run through public calls: per tuple, generate the
// workload and harvest its crash points (topping up with the campaign's
// seeded random sweep), then advance one machine through the sorted points,
// capturing and checking the crash state at each.
func (w *crashCampaign) trace(tr *tracer, ref *passResult) (map[string]float64, error) {
	spec := w.spec
	var tuples []*crashTuple
	for _, b := range spec.Benchmarks {
		for _, k := range spec.Systems {
			tuples = append(tuples, &crashTuple{bench: b.Scale(w.scale()), cfg: spec.Config(k)})
		}
	}
	generate := func(tp *crashTuple) *trace.Workload {
		var wl *trace.Workload
		tr.span("trace.generate_s", func() { wl = trace.Generate(tp.bench, tp.cfg.Cores, spec.Seed) })
		return wl
	}
	err := tr.replica(func() error {
		parallel(len(tuples), spec.Parallel, func(i int) {
			tp := tuples[i]
			wl := generate(tp)
			var horizon uint64
			tr.span("crashmc.harvest_s", func() {
				tp.points, horizon, tp.err = crashmc.HarvestWorkload(tp.cfg, wl, spec.Points)
			})
			if missing := spec.Points - len(tp.points); missing > 0 {
				tp.points = append(tp.points, crashmc.RandomPoints(horizon, missing, spec.Seed+int64(i)*7919)...)
			}
		})
		parallel(len(tuples), spec.Parallel, func(i int) {
			tp := tuples[i]
			if tp.err != nil {
				return
			}
			sort.Slice(tp.points, func(a, b int) bool { return tp.points[a] < tp.points[b] })
			var m *machine.Machine
			tr.span("machine.new_s", func() { m, tp.err = machine.New(tp.cfg) })
			if tp.err != nil {
				return
			}
			m.StartCrashRun(generate(tp))
			for _, at := range tp.points {
				tr.span("machine.advance_s", func() { m.AdvanceTo(sim.Time(at)) })
				var cs *machine.CrashState
				tr.span("machine.capture_s", func() { cs = m.CaptureCrashState() })
				var cerr error
				tr.span("checker.check_s", func() { cerr = checker.Check(cs) })
				durable := 0
				for _, g := range cs.Groups {
					if g.State() >= core.Durable {
						durable++
					}
				}
				tp.injections++
				tp.durable += durable
				if durable > 0 && durable < len(cs.Groups) {
					tp.partial++
				}
				if cerr != nil {
					tp.violations++
				}
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var injections, partial, durable, violations int
	for _, tp := range tuples {
		if tp.err != nil {
			return nil, fmt.Errorf("crash_campaign replica %s/%s: %w", tp.bench.Name, tp.cfg.System, tp.err)
		}
		injections += tp.injections
		partial += tp.partial
		durable += tp.durable
		violations += tp.violations
	}
	want := ref.counts
	if float64(injections) != want["injections"] || float64(partial) != want["partial"] ||
		float64(durable) != want["durable"] || violations != 0 {
		return nil, fmt.Errorf("crash_campaign replica diverged: %d injections, %d partial, %d durable groups, %d violations; campaign %v",
			injections, partial, durable, violations, want)
	}
	return map[string]float64{
		"trace.generate_s":     tr.total("trace.generate_s"),
		"crashmc.harvest_s":    tr.total("crashmc.harvest_s"),
		"machine.new_s":        tr.total("machine.new_s"),
		"machine.advance_s":    tr.total("machine.advance_s"),
		"machine.capture_s":    tr.total("machine.capture_s"),
		"checker.check_s":      tr.total("checker.check_s"),
		"crashmc.partial_frac": float64(partial) / float64(injections),
		"crashmc.injections":   float64(injections),
	}, nil
}
