package crashmc

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kill records how (or whether) the checker caught one injected fault.
type Kill struct {
	Fault string `json:"fault"`
	// Expected and Rule are the rule the fault is engineered to trip and
	// the rule that actually fired.
	Expected string `json:"expected"`
	Rule     string `json:"rule,omitempty"`
	// At is the crash cycle of the kill; Applied counts crash points where
	// the fault found a target; Tried counts crash points examined.
	At      uint64 `json:"at,omitempty"`
	Applied int    `json:"applied"`
	Tried   int    `json:"tried"`
	Killed  bool   `json:"killed"`
}

// Mutate proves the checker is not vacuously green: for every injectable
// machine.CrashFault it crashes the workload with the fault armed and
// requires that, at the first crash point where the fault finds a target,
// the checker rejects the state with exactly the engineered rule. The crash
// points are the workload's drain horizon, then up to budget harvested
// transition cycles newest first: late crashes have rich journals (durable,
// frozen and open groups), so faults apply quickly. A wedged harvest run
// returns no kills. A fault the checker accepts (or misclassifies) is a
// surviving mutant and an error; a fault that never found a target across
// all points is also an error — the campaign was too weak to even express
// the bug.
func Mutate(p trace.Profile, kind machine.SystemKind, cfg machine.Config, seed int64, budget int) ([]Kill, error) {
	harvested, horizon, err := HarvestWorkload(cfg, trace.Generate(p, cfg.Cores, seed), budget)
	if err != nil {
		return nil, fmt.Errorf("crashmc: %w", err)
	}
	slices.Reverse(harvested)
	points := append([]uint64{horizon}, harvested...)
	var kills []Kill
	var failures []error
	for _, fault := range machine.Faults() {
		k := Kill{Fault: fault.String(), Expected: fault.ExpectedRule()}
		failed := false
		for _, at := range points {
			k.Tried++
			fcfg := cfg
			fcfg.CrashFault = fault
			m, err := machine.New(fcfg)
			if err != nil {
				return nil, fmt.Errorf("crashmc: %w", err)
			}
			w := trace.Generate(p, fcfg.Cores, seed)
			cs := m.RunWithCrash(w, sim.Time(at))
			if !cs.FaultApplied {
				continue
			}
			k.Applied++
			err = checker.Check(cs)
			if err == nil {
				failures = append(failures, fmt.Errorf(
					"mutant %v survived: fault applied at cycle %d but the checker passed the state", fault, at))
				failed = true
				break
			}
			var v *checker.Violation
			if !errors.As(err, &v) || v.Rule != k.Expected {
				failures = append(failures, fmt.Errorf(
					"mutant %v misclassified at cycle %d: want rule %q, got %v", fault, at, k.Expected, err))
				failed = true
				break
			}
			k.Rule, k.At, k.Killed = v.Rule, at, true
			break
		}
		if !k.Killed && !failed {
			failures = append(failures, fmt.Errorf(
				"mutant %v never applicable: none of the %d crash points offered a target", fault, k.Tried))
		}
		kills = append(kills, k)
	}
	return kills, errors.Join(failures...)
}
