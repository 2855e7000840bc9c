package litmus

import (
	"testing"

	"repro/internal/machine"
)

// TestMutationKills is the checker/litmus cross-gate: every injectable
// persistency fault must be killed by at least one corpus test, either
// through a forbidden/unallowed durable outcome or through a checker
// rejection of an allowed one.
func TestMutationKills(t *testing.T) {
	tests, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	kills, err := MutationKills(tests, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kills) != len(machine.Faults()) {
		t.Fatalf("ledger covers %d faults, want %d", len(kills), len(machine.Faults()))
	}
	for _, k := range kills {
		if !k.Killed {
			t.Errorf("mutant %s survived the corpus", k.Fault)
			continue
		}
		if k.Test == "" || k.Violation == "" {
			t.Errorf("mutant %s: kill without a witness: %+v", k.Fault, k)
		}
		if k.Mode != "outcome" && k.Mode != "cross-check" {
			t.Errorf("mutant %s: unknown kill mode %q", k.Fault, k.Mode)
		}
		if k.Applied == 0 {
			t.Errorf("mutant %s: killed without ever applying", k.Fault)
		}
	}
}

// TestMutationOutcomeKill pins the sharper kill mode: a torn multi-line
// persist epoch must be observable in the durable outcome alone, not just
// via the checker — the two-store epoch test decodes the torn image to a
// forbidden state.
func TestMutationOutcomeKill(t *testing.T) {
	tests, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := Find(tests, "epoch-atomic")
	if !ok {
		t.Fatal("corpus lost epoch-atomic")
	}
	// Other faults may legitimately survive a one-test corpus; only the
	// torn-group entry matters here.
	kills, _ := MutationKills([]*Test{tt}, Options{})
	for _, k := range kills {
		if k.Fault != machine.FaultTornGroup.String() {
			continue
		}
		if !k.Killed {
			t.Fatal("epoch-atomic failed to kill torn-group")
		}
		if k.Mode != "outcome" {
			t.Errorf("torn-group on epoch-atomic killed via %q, want an outcome kill: %s", k.Mode, k.Violation)
		}
		return
	}
	t.Fatal("torn-group missing from ledger")
}
