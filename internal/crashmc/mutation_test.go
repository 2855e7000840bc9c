package crashmc

import (
	"testing"

	"repro/internal/machine"
)

// The mutation acceptance test: every injected persistency fault must be
// killed by the checker with exactly the rule it is engineered to trip —
// on both strict systems. A surviving mutant means the checker is
// vacuously green and the whole campaign layer proves nothing.
func TestMutationKillsAllFaults(t *testing.T) {
	for _, kind := range []machine.SystemKind{machine.TSOPER, machine.STW} {
		t.Run(kind.String(), func(t *testing.T) {
			p := Adversaries()[0] // contended hot lines: every fault finds targets
			kills, err := Mutate(p, kind, machine.TableI(kind), 42, 60)
			if err != nil {
				t.Fatal(err)
			}
			rulesFired := map[string]bool{}
			for _, k := range kills {
				if !k.Killed {
					t.Fatalf("fault %s not killed (applied at %d of %d points)", k.Fault, k.Applied, k.Tried)
				}
				if k.Rule != k.Expected {
					t.Fatalf("fault %s fired rule %q, want %q", k.Fault, k.Rule, k.Expected)
				}
				rulesFired[k.Rule] = true
			}
			// The checker's four documented persistency rules, by Violation.Rule:
			// atomicity, per-core prefix, persist-before closure, and the
			// FIFO/leak pair of the image check.
			for _, rule := range []string{"atomicity", "core-prefix", "persist-before", "leak"} {
				if !rulesFired[rule] {
					t.Fatalf("checker rule %q never fired across the mutation campaign", rule)
				}
			}
		})
	}
}

// FaultNone must leave the state untouched and checkable.
func TestFaultNoneIsNoop(t *testing.T) {
	spec := smokeSpec()
	spec.Benchmarks = Adversaries()[:1]
	spec.Systems = []machine.SystemKind{machine.TSOPER}
	spec.Points = 10
	spec.Config = withCrashFault(machine.FaultNone)
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("FaultNone produced violations: %s", report.Summary())
	}
}

// A fault campaign through the parallel driver must report every applied
// fault as a violation with the engineered rule, and each shrunk case must
// name the campaign's coherence backend (empty for SLC) so it reproduces
// stand-alone.
func TestFaultCampaignReportsViolations(t *testing.T) {
	for _, coh := range []machine.CoherenceKind{machine.CoherenceSLC, machine.CoherenceTardis} {
		t.Run(coh.String(), func(t *testing.T) {
			spec := smokeSpec()
			spec.Name = "mutation-campaign"
			spec.Benchmarks = Adversaries()[:1]
			spec.Systems = []machine.SystemKind{machine.TSOPER}
			spec.Points = 12
			spec.Config = withCrashFault(machine.FaultTornGroup)
			spec.Shrink = true
			spec.Coherence = coh
			wantCoherence := ""
			if coh != machine.CoherenceSLC {
				wantCoherence = coh.String()
			}
			report, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			applied := 0
			for _, inj := range report.Violations {
				if inj.Rule != machine.FaultTornGroup.ExpectedRule() {
					t.Fatalf("fault fired rule %q, want %q", inj.Rule, machine.FaultTornGroup.ExpectedRule())
				}
				if inj.Shrunk == nil {
					t.Fatal("violation not shrunk")
				}
				if inj.Shrunk.At > inj.At || inj.Shrunk.Profile.OpsPerCore > spec.Benchmarks[0].OpsPerCore {
					t.Fatalf("shrunk case grew: %s", inj.Shrunk)
				}
				if inj.Shrunk.Coherence != wantCoherence {
					t.Fatalf("shrunk case records coherence %q, want %q", inj.Shrunk.Coherence, wantCoherence)
				}
				if !failsSame(*inj.Shrunk) {
					t.Fatalf("shrunk case does not reproduce: %s", inj.Shrunk)
				}
				applied++
			}
			if applied == 0 {
				t.Fatal("torn-group fault never applied — campaign crash points all predate durability")
			}
			if report.Clean() {
				t.Fatal("fault campaign reported clean")
			}
		})
	}
}

// withCrashFault is a Spec.Config that arms the fault on Table I machines.
func withCrashFault(f machine.CrashFault) func(machine.SystemKind) machine.Config {
	return func(k machine.SystemKind) machine.Config {
		cfg := machine.TableI(k)
		cfg.CrashFault = f
		return cfg
	}
}
