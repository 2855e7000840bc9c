package harness

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/trace"
)

// libraryIdentityBenches are the golden library programs that byte-reproduce
// legacy synthetic profiles (one per workload archetype).
var libraryIdentityBenches = []string{"radix", "ocean_cp", "dedup", "swaptions"}

// snapJSON serializes a result snapshot for byte comparison.
func snapJSON(t *testing.T, r *machine.Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// scaledIdentityProgram loads a golden identity program and rewrites its
// profile instructions to the given scale, mirroring Options.Scale on the
// legacy path so the test runs at CI-friendly size.
func scaledIdentityProgram(t *testing.T, name string, scale float64) *program.Program {
	t.Helper()
	p, err := program.ByName(name)
	if err != nil {
		t.Fatalf("library %q: %v", name, err)
	}
	for c := range p.Cores {
		for i := range p.Cores[c].Instrs {
			in := &p.Cores[c].Instrs[i]
			if in.Op != program.OpProfile {
				t.Fatalf("library %q is not a pure identity program (found %q)", name, in.Op)
			}
			in.Scale = scale
		}
	}
	return p
}

// TestProgramSnapshotIdentity is the acceptance gate for the golden
// library: running an identity program end to end yields a byte-identical
// Results.Snapshot() to running its profile the legacy way — same machine,
// same seed, for both the TSOPER and baseline systems.
func TestProgramSnapshotIdentity(t *testing.T) {
	t.Parallel()
	const scale = 0.1
	o := Options{Scale: scale, Seed: 42}
	systems := []machine.SystemKind{machine.TSOPER, machine.Baseline}
	for i, name := range libraryIdentityBenches {
		name, system := name, systems[i%len(systems)]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof, ok := trace.ByName(name)
			if !ok {
				t.Fatalf("no profile %q", name)
			}
			want, err := RunConfigChecked(prof, machine.TableI(system), o)
			if err != nil {
				t.Fatalf("profile run: %v", err)
			}

			p := scaledIdentityProgram(t, name, scale)
			got, err := RunProgramConfigChecked(p, machine.TableI(system), o)
			if err != nil {
				t.Fatalf("program run: %v", err)
			}

			ws := snapJSON(t, want)
			gs := snapJSON(t, got)
			if !bytes.Equal(ws, gs) {
				t.Fatalf("snapshots differ for %s on %v:\nprofile: %s\nprogram: %s", name, system, ws, gs)
			}
		})
	}
}

func TestRunProgramChecked(t *testing.T) {
	t.Parallel()
	p, err := program.ByName("producer-consumer-ring")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.TableI(machine.TSOPER)
	r, err := RunProgramConfigChecked(p, cfg, Options{Seed: 1})
	if err != nil {
		t.Fatalf("RunProgramConfigChecked: %v", err)
	}
	if r.Cycles == 0 {
		t.Fatalf("program run reported zero cycles")
	}
	if r.Snapshot().Benchmark != "producer-consumer-ring" {
		t.Fatalf("snapshot benchmark %q", r.Snapshot().Benchmark)
	}

	// Determinism across runs.
	r2, err := RunProgramConfigChecked(p, cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapJSON(t, r), snapJSON(t, r2)) {
		t.Fatalf("same seed produced different snapshots")
	}

	// Invalid programs fail as errors, not panics.
	bad := &program.Program{Version: 1, Name: "bad", Cores: []program.CoreProg{
		{Instrs: []program.Instr{{Op: "warp"}}},
	}}
	if _, err := RunProgramConfigChecked(bad, cfg, Options{}); err == nil {
		t.Fatalf("invalid program ran")
	}
}

// Options.Protocol overrides an explicit config's Coherence on program runs
// exactly as it does on profile runs: selecting tardis through the options
// or through the config must give the same snapshot bytes.
func TestProgramRunHonoursProtocol(t *testing.T) {
	t.Parallel()
	p, err := program.ByName("producer-consumer-ring")
	if err != nil {
		t.Fatal(err)
	}
	viaOptions, err := RunProgramConfigChecked(p, machine.TableI(machine.TSOPER),
		Options{Seed: 3, Protocol: machine.CoherenceTardis})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.TableI(machine.TSOPER)
	cfg.Coherence = machine.CoherenceTardis
	viaConfig, err := RunProgramConfigChecked(p, cfg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, viaOptions), snapJSON(t, viaConfig); !bytes.Equal(a, b) {
		t.Fatalf("Options.Protocol ignored on a program run:\noptions: %s\nconfig:  %s", a, b)
	}
}

func TestEstimateProgram(t *testing.T) {
	t.Parallel()
	p, err := program.ByName("log-structured-writer")
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateProgram(p, machine.TableI(machine.TSOPER))
	if err != nil {
		t.Fatalf("EstimateProgram: %v", err)
	}
	if est.Ops <= 0 || est.Cycles == 0 {
		t.Fatalf("degenerate estimate %+v", est)
	}
}

func BenchmarkProgramRun(b *testing.B) {
	p, err := program.ByName("producer-consumer-ring")
	if err != nil {
		b.Fatal(err)
	}
	est, err := EstimateProgram(p, machine.TableI(machine.TSOPER))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(est.Ops))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProgramConfigChecked(p, machine.TableI(machine.TSOPER), Options{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}
