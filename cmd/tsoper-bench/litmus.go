package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/crashmc"
	"repro/internal/faultplan"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// litmusGate is `tsoper-litmus -corpus -scheduler wheel -no-mutation`: the
// whole corpus explored on the wheel scheduler with no fault plan, then
// under the nvm-transient and noc-lossy plans, sequentially. The seed picks
// the four jitter streams of the perturbation sweep (seed 42 keeps the
// default streams 1-4); the other perturbations already cover every allowed
// outcome, so any seed keeps the gate's coverage requirement satisfiable.
type litmusGate struct {
	tests       []*litmus.Test
	plans       []*faultplan.Spec // nil: no fault plan
	perturbs    []litmus.Perturb
	inputDigest string
	// coverage requires every allowed outcome to be reached without a
	// fault plan; a -short sweep is too small to reach them all.
	coverage bool
}

func newLitmusGate(seed int64, short bool) (*litmusGate, error) {
	tests, err := litmus.Corpus()
	if err != nil {
		return nil, fmt.Errorf("litmus_gate: %w", err)
	}
	w := &litmusGate{tests: tests, plans: []*faultplan.Spec{nil}}
	for _, name := range []string{"nvm-transient", "noc-lossy"} {
		p, ok := faultplan.Preset(name)
		if !ok {
			return nil, fmt.Errorf("litmus_gate: fault preset %q missing", name)
		}
		w.plans = append(w.plans, &p)
	}
	var fixed []litmus.Perturb
	for _, p := range litmus.DefaultPerturbs() {
		if p.Jitter == 0 {
			fixed = append(fixed, p)
		}
	}
	jitters := 4
	w.coverage = !short
	if short {
		w.tests, fixed, jitters = w.tests[:2], fixed[:2], 1
	}
	w.perturbs = fixed
	for k := int64(0); k < int64(jitters); k++ {
		// Stride 5 over four streams never lands on 0, the unjittered lowering.
		w.perturbs = append(w.perturbs, litmus.Perturb{Jitter: 5*(seed-referenceSeed) + k + 1})
	}
	// The inputs are every test lowered under every perturbation, judged
	// against allowed sets the Px86 reference model must still derive.
	var wls []*trace.Workload
	for _, t := range w.tests {
		allowed, err := t.AllowedOutcomes()
		if err != nil {
			return nil, fmt.Errorf("litmus_gate: %s: %w", t.Name, err)
		}
		if strings.Join(allowed, " ") != strings.Join(t.Allowed, " ") {
			return nil, fmt.Errorf("litmus_gate: %s: the reference model allows %v, the corpus %v", t.Name, allowed, t.Allowed)
		}
		for _, p := range w.perturbs {
			wls = append(wls, t.Workload(p))
		}
	}
	w.inputDigest, err = digestWorkloads(wls...)
	return w, err
}

func (w *litmusGate) inputs() string { return w.inputDigest }

func (w *litmusGate) options(plan *faultplan.Spec) litmus.Options {
	o := litmus.Default()
	o.Scheduler = sim.SchedulerWheel
	o.Perturbs = w.perturbs
	o.Coverage = w.coverage
	if plan != nil {
		o.Faults = plan
		o.Coverage = false // injected failures legitimately narrow reachability
	}
	return o
}

func (w *litmusGate) pass() (*passResult, error) {
	res := &passResult{}
	h := sha256.New()
	for _, plan := range w.plans {
		o := w.options(plan)
		for _, t := range w.tests {
			r := litmus.Explore(t, o)
			res.ops += r.Points
			blob, err := json.Marshal(r)
			if err != nil {
				return nil, fmt.Errorf("litmus_gate: %w", err)
			}
			h.Write(blob)
			if !r.Conforms() {
				res.failed += r.TotalViolations
				res.problems = append(res.problems, r.Err().Error())
			}
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.counts = map[string]float64{"crash_states": float64(res.ops)}
	return res, nil
}

// trace replays Explore's machine work through public calls: lower each
// perturbation (Test.Workload), harvest its crash points, then run one
// fresh machine per point to the crash and check the recovered state.
// Outcome decoding against the oracle is internal to Explore and not
// replayed.
func (w *litmusGate) trace(tr *tracer, ref *passResult) (map[string]float64, error) {
	states := 0
	err := tr.replica(func() error {
		for _, plan := range w.plans {
			for _, t := range w.tests {
				cfg := machine.TableI(machine.TSOPER)
				cfg.Cores = len(t.Cores)
				cfg.Scheduler = sim.SchedulerWheel
				cfg.Faults = plan
				for _, p := range w.perturbs {
					var wl *trace.Workload
					tr.span("litmus.lower_s", func() { wl = t.Workload(p) })
					var points []uint64
					var horizon uint64
					var err error
					tr.span("crashmc.harvest_s", func() { points, horizon, err = crashmc.HarvestWorkload(cfg, wl, 48) })
					if err != nil {
						return fmt.Errorf("litmus_gate replica %s %v: %w", t.Name, p, err)
					}
					points = append([]uint64{1}, append(points, horizon+16)...)
					for _, at := range points {
						var m *machine.Machine
						tr.span("machine.new_s", func() { m, err = machine.New(cfg) })
						if err != nil {
							return fmt.Errorf("litmus_gate replica %s: %w", t.Name, err)
						}
						var cs *machine.CrashState
						tr.span("machine.crashrun_s", func() { cs = m.RunWithCrash(wl, sim.Time(at)) })
						states++
						if cs.Stalled {
							continue
						}
						// The verdict counts only for outcomes the oracle
						// allows, which Explore decides; the pass checked it.
						tr.span("checker.check_s", func() { _ = checker.Check(cs) })
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if float64(states) != ref.counts["crash_states"] {
		return nil, fmt.Errorf("litmus_gate replica ran %d crash states, the gate %v", states, ref.counts["crash_states"])
	}
	return map[string]float64{
		"litmus.lower_s":      tr.total("litmus.lower_s"),
		"crashmc.harvest_s":   tr.total("crashmc.harvest_s"),
		"machine.new_s":       tr.total("machine.new_s"),
		"machine.crashrun_s":  tr.total("machine.crashrun_s"),
		"checker.check_s":     tr.total("checker.check_s"),
		"litmus.crash_states": float64(states),
	}, nil
}
