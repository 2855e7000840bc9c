package harness

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

func bench(t *testing.T, name string) trace.Profile {
	t.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return p
}

// A timeout-armed run of a healthy machine must finish and produce exactly
// the bytes of an unarmed run: the watchdog is an observer, not a knob.
func TestTimeoutPreservesResults(t *testing.T) {
	p := bench(t, "radix")
	o := Options{Scale: 0.05, Seed: 7}
	plain, err := RunConfigChecked(p, machine.TableI(machine.TSOPER), o)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	o.Timeout = 50_000
	armed, err := RunConfigChecked(p, machine.TableI(machine.TSOPER), o)
	if err != nil {
		t.Fatalf("armed run: %v", err)
	}
	var a, b bytes.Buffer
	if err := plain.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := armed.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("watchdog-armed run's snapshot differs from the plain run")
	}
}

// Timeout must override a config-level horizon and flow through
// RunConfigChecked.
func TestTimeoutOverridesConfigHorizon(t *testing.T) {
	p := bench(t, "radix")
	cfg := machine.TableI(machine.TSOPER)
	cfg.WatchdogHorizon = 1_000_000
	r, err := RunConfigChecked(p, cfg, Options{Scale: 0.05, Seed: 7, Timeout: 60_000})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Cycles == 0 {
		t.Fatal("empty run")
	}
}

// An invalid configuration must come back as an error, not a panic.
func TestRunConfigCheckedBadConfig(t *testing.T) {
	cfg := machine.TableI(machine.TSOPER)
	cfg.Cores = 0
	if _, err := RunConfigChecked(bench(t, "radix"), cfg, Options{Scale: 0.05}); err == nil {
		t.Fatal("expected configuration error")
	}
}

// grid with a timeout set must still produce every cell (the watchdog
// stays silent on healthy runs at any worker width).
func TestGridWithTimeout(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 7, Workers: 2, Timeout: sim.Time(100_000)}
	out := grid(o, []trace.Profile{bench(t, "radix")}, tableI(machine.Baseline, machine.TSOPER)...)
	if len(out) != 1 || len(out[0]) != 2 || out[0][0] == nil || out[0][1] == nil {
		t.Fatalf("expected 1x2 cells, got %v", out)
	}
}
