package crashmc

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// findFailing returns a Failure that reproduces: the torn-group fault armed
// at a crash cycle late enough for durable groups to exist.
func findFailing(t *testing.T) Failure {
	t.Helper()
	p := Adversaries()[0]
	points, horizon := harvest(t, p, machine.TableI(machine.TSOPER), 42, 40)
	points = append(points, horizon)
	for i := len(points) - 1; i >= 0; i-- {
		f := Failure{
			Profile: p,
			System:  machine.TSOPER.String(),
			Cores:   8,
			Seed:    42,
			At:      points[i],
			Fault:   machine.FaultTornGroup.String(),
			Rule:    machine.FaultTornGroup.ExpectedRule(),
		}
		if failsSame(f) {
			return f
		}
	}
	t.Fatal("no crash point with a tearable durable group found")
	return Failure{}
}

func TestShrinkMinimizesFailure(t *testing.T) {
	f := findFailing(t)
	shrunk := Shrink(f)
	if !failsSame(shrunk) {
		t.Fatalf("shrunk case no longer fails: %s", shrunk)
	}
	if shrunk.Profile.OpsPerCore > f.Profile.OpsPerCore || shrunk.Cores > f.Cores || shrunk.At > f.At {
		t.Fatalf("shrink grew the case: %s -> %s", f, shrunk)
	}
	if shrunk.Profile.OpsPerCore == f.Profile.OpsPerCore && shrunk.Cores == f.Cores && shrunk.At == f.At {
		t.Logf("shrink made no progress (already minimal): %s", shrunk)
	}
}

func TestShrinkLeavesConsistentCaseAlone(t *testing.T) {
	f := findFailing(t)
	f.Fault = machine.FaultNone.String()
	f.Rule = ""
	if err := Reproduce(f); err != nil {
		t.Fatalf("genuine state rejected: %v", err)
	}
	if got := Shrink(f); got != f {
		t.Fatalf("shrinking a passing case changed it: %s", got)
	}
}

// A case that cannot run is not a reproduction: shrinking it must return
// it unchanged rather than minimize an error that never reached the checker.
func TestShrinkLeavesUnrunnableCaseAlone(t *testing.T) {
	f := Failure{Profile: Adversaries()[0], System: "nope", Cores: 8, Seed: 1, At: 4000}
	if got := Shrink(f); got != f {
		t.Fatalf("shrinking an unrunnable case changed it: %s", got)
	}
}

func TestReproduceUnknownNames(t *testing.T) {
	if err := Reproduce(Failure{System: "bogus"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	f := findFailing(t)
	f.Fault = "bogus"
	if err := Reproduce(f); err == nil {
		t.Fatal("unknown fault accepted")
	}
	f = findFailing(t)
	f.Coherence = "bogus"
	if err := Reproduce(f); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown coherence backend: %v", err)
	}
}

// A shrunk case must reproduce from its printed text, so the text names a
// non-SLC coherence backend; SLC cases print as they always have.
func TestFailureStringNamesCoherence(t *testing.T) {
	f := Failure{
		Profile: trace.Profile{Name: "adv_hotline", OpsPerCore: 37},
		System:  "tsoper", Cores: 2, Seed: 42, At: 85,
		Fault: "torn-group", Rule: "atomicity",
	}
	const slc = "adv_hotline/tsoper cores=2 ops=37 seed=42 crash@85 fault=torn-group rule=atomicity"
	if got := f.String(); got != slc {
		t.Fatalf("SLC failure prints %q, want %q", got, slc)
	}
	f.Coherence = "tardis"
	if got, want := f.String(), slc+" coherence=tardis"; got != want {
		t.Fatalf("tardis failure prints %q, want %q", got, want)
	}
}
