package crashmc_test

import (
	"testing"

	"repro/internal/crashmc"
	"repro/internal/faultplan"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/trace"
)

// TestHarvestHorizonIsDrainCycles pins that the harvest's horizon, read
// from the machine's clock once the run is done, is the cycle a fresh
// machine's full run reports as Results.DrainCycles: for every adversary on
// both strict systems, with and without a fault plan, and for a litmus
// corpus test.
func TestHarvestHorizonIsDrainCycles(t *testing.T) {
	storm, ok := faultplan.Preset("storm")
	if !ok {
		t.Fatal("fault preset storm missing")
	}
	type run struct {
		name string
		cfg  machine.Config
		w    *trace.Workload
	}
	var runs []run
	for _, p := range crashmc.Adversaries() {
		for _, k := range []machine.SystemKind{machine.TSOPER, machine.STW} {
			for _, plan := range []*faultplan.Spec{nil, &storm} {
				cfg := machine.TableI(k)
				cfg.Faults = plan
				name := p.Name + "/" + k.String()
				if plan != nil {
					name += "/" + plan.Name
				}
				runs = append(runs, run{name, cfg, trace.Generate(p, cfg.Cores, 42)})
			}
		}
	}
	tests, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range tests {
		if lt.Name == "sb" {
			cfg := machine.TableI(machine.TSOPER)
			cfg.Cores = len(lt.Cores)
			runs = append(runs, run{"litmus/sb", cfg, lt.Workload(litmus.Perturb{})})
		}
	}
	if len(runs) != 4*2*2+1 {
		t.Fatalf("built %d runs, want %d (corpus test sb missing?)", len(runs), 4*2*2+1)
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			_, horizon, err := crashmc.HarvestWorkload(r.cfg, r.w, 0)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.RunChecked(r.w)
			if err != nil {
				t.Fatal(err)
			}
			if horizon != uint64(res.DrainCycles) {
				t.Fatalf("harvest horizon %d, full run's DrainCycles %d", horizon, res.DrainCycles)
			}
		})
	}
}
