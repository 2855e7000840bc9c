package litmus

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Mutation testing of the oracle itself: the litmus corpus is only
// trustworthy if it actually fails when the machine misbehaves. For every
// injectable persistency fault we re-run the corpus with the fault
// corrupting each recovered crash state and demand at least one test
// notices — either because the corrupted image decodes to a non-allowed
// outcome ("outcome" kill: torn epochs, broken prefixes) or because the
// crash-consistency checker rejects a state whose image happens to remain
// plausible ("cross-check" kill: dependency and ordering faults are
// invisible in a two-variable image but never to the checker).

// Kill records how one injected fault was caught.
type Kill struct {
	Fault string `json:"fault"`
	// Expected is the checker rule the fault is engineered to trip.
	Expected string `json:"expected"`
	// Test is the corpus test that killed the fault; Mode is "outcome" for
	// a forbidden/unallowed durable state, "cross-check" for a checker
	// rejection of an allowed one.
	Test string `json:"test,omitempty"`
	Mode string `json:"mode,omitempty"`
	// Violation is the witnessing violation, rendered.
	Violation string `json:"violation,omitempty"`
	// Applied counts crash states the fault found a target in across the
	// killing test's exploration; TestsTried counts corpus tests examined.
	Applied    int  `json:"applied"`
	TestsTried int  `json:"tests_tried"`
	Killed     bool `json:"killed"`
}

// killMode classifies a violation as a kill witness.
func killMode(v Violation) string {
	switch v.Kind {
	case "forbidden", "unallowed":
		return "outcome"
	case "checker-disagreement":
		return "cross-check"
	default:
		return ""
	}
}

// MutationKills runs every injectable fault against the corpus until a test
// kills it. The exploration runs without coverage (a corrupted machine
// legitimately narrows reachability) and with a reduced perturbation sweep
// — fault injection is deterministic per crash state, so one lowering per
// test suffices. A fault no test kills is an error: the corpus is too weak
// to notice that corruption.
func MutationKills(tests []*Test, o Options) ([]Kill, error) {
	o.Coverage = false
	if o.Perturbs == nil {
		o.Perturbs = []Perturb{{}}
	}
	var kills []Kill
	var failures []error
	for _, fault := range machine.Faults() {
		k := Kill{Fault: fault.String(), Expected: fault.ExpectedRule()}
		for _, t := range tests {
			k.TestsTried++
			fo := o
			fo.Fault = fault
			r := Explore(t, fo)
			if r.Conforms() {
				continue
			}
			// Prefer an outcome witness — corruption visible in the durable
			// image itself is the stronger evidence — over a cross-check one.
			// A cross-check kill is recorded but the scan continues: a later
			// test may surface the same fault as a forbidden outcome.
			for _, mode := range []string{"outcome", "cross-check"} {
				for _, v := range r.Violations {
					if killMode(v) != mode {
						continue
					}
					if !k.Killed || (k.Mode == "cross-check" && mode == "outcome") {
						k.Test, k.Mode, k.Violation = t.Name, mode, v.String()
						k.Applied = r.FaultApplied
						k.Killed = true
					}
					break
				}
				if k.Killed {
					break
				}
			}
			if k.Killed && k.Mode == "outcome" {
				break
			}
		}
		if !k.Killed {
			failures = append(failures, fmt.Errorf(
				"litmus: mutant %v survived all %d corpus tests", fault, k.TestsTried))
		}
		kills = append(kills, k)
	}
	return kills, errors.Join(failures...)
}
