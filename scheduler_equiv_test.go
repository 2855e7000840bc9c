// Differential scheduler-equivalence suite: the timing wheel must be
// observationally identical to the reference binary heap. Every benchmark in
// the figure roster and every crashmc adversarial profile runs under both
// schedulers across seeds 1–8, and the full Results/telemetry snapshot —
// every counter, distribution, resource utilization, the per-line coherence
// order, and the durable NVM image — must match byte for byte. Timestamp
// order is semantically load-bearing here (persists follow coherence
// serialization order), so "close enough" is not a scheduler property this
// simulator can accept.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/crashmc"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/tsoper"
)

// equivSeeds is the seed sweep the issue pins: eight distinct workload
// generations per case.
var equivSeeds = [...]int64{1, 2, 3, 4, 5, 6, 7, 8}

// equivSystems cycles per seed so the sweep exercises all four persistency
// systems without quadrupling the run count.
var equivSystems = [...]tsoper.System{tsoper.TSOPER, tsoper.HWRP, tsoper.BSP, tsoper.STW}

// runEquiv executes one configuration under the scheduler its Config
// names and returns the results plus the serialized snapshot.
func runEquiv(t *testing.T, p tsoper.Profile, sys tsoper.System, o tsoper.RunOptions) (*tsoper.Results, []byte) {
	t.Helper()
	r, err := tsoper.Run(p, sys, o)
	if err != nil {
		t.Fatalf("%s/%s (scheduler %s): %v", p.Name, sys, o.Config.Scheduler, err)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return r, buf.Bytes()
}

// equivConfig is the machine configuration tsoper.Run builds for these
// options, on the given scheduler. Handed back as RunOptions.Config, it
// selects the scheduler for tsoper.Run; the checkpoint axis drives the
// same run on the machine API.
func equivConfig(sys tsoper.System, o tsoper.RunOptions, kind sim.SchedulerKind) machine.Config {
	cfg := tsoper.TableI(sys)
	if o.Config != nil {
		cfg = *o.Config
	}
	cfg.System = sys
	cfg.Scheduler = kind
	if o.Protocol != tsoper.ProtocolSLC {
		cfg.Coherence = o.Protocol
	}
	return cfg
}

// assertCheckpointResume is the checkpoint axis of the differential suite,
// driven on the machine API. A fresh machine is paused at roughly the
// midpoint of the straight-through run and checkpointed. The paused
// machine, run on to the end, must reproduce the straight-through snapshot
// byte for byte, and so must a machine restored from the blob; both must
// finish on the same cycle with the same coherence order and durable image.
func assertCheckpointResume(t *testing.T, cfg machine.Config, w *trace.Workload, straight *machine.Results, want []byte) {
	t.Helper()
	mid := straight.Cycles / 2
	if mid == 0 {
		mid = 1
	}
	paused, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paused.Start(w)
	if _, err := paused.Advance(mid); err != nil {
		t.Fatal(err)
	}
	blob, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := machine.Restore(cfg, w, blob)
	if err != nil {
		t.Fatalf("restore at cycle %d (scheduler %s): %v", mid, cfg.Scheduler, err)
	}
	for _, run := range []struct {
		name string
		m    *machine.Machine
	}{{"paused", paused}, {"restored", restored}} {
		if done, err := run.m.Advance(sim.MaxTime); err != nil || !done {
			t.Fatalf("%s run: done=%v err=%v", run.name, done, err)
		}
		r := run.m.Results()
		var got bytes.Buffer
		if err := r.Snapshot().WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s run diverged from straight-through (scheduler %s, checkpoint at cycle %d of %d): %d bytes vs %d",
				run.name, cfg.Scheduler, mid, straight.Cycles, got.Len(), len(want))
		}
		if r.Cycles != straight.Cycles {
			t.Fatalf("%s run finished at cycle %d, straight-through at %d", run.name, r.Cycles, straight.Cycles)
		}
		if !reflect.DeepEqual(r.LineOrder, straight.LineOrder) {
			t.Fatalf("%s run: coherence order diverged (scheduler %s)", run.name, cfg.Scheduler)
		}
		if !reflect.DeepEqual(r.Durable, straight.Durable) {
			t.Fatalf("%s run: durable image diverged (scheduler %s)", run.name, cfg.Scheduler)
		}
	}
}

// assertEquivalent runs the configuration under heap and wheel and demands
// byte-identical snapshots plus identical coherence order and durable image
// — and, on each scheduler, that checkpoint-at-midpoint-then-resume
// reproduces the same bytes.
func assertEquivalent(t *testing.T, p tsoper.Profile, sys tsoper.System, o tsoper.RunOptions) {
	t.Helper()
	ch, cw := equivConfig(sys, o, sim.SchedulerHeap), equivConfig(sys, o, sim.SchedulerWheel)
	oh, ow := o, o
	oh.Config, ow.Config = &ch, &cw
	rh, sh := runEquiv(t, p, sys, oh)
	rw, sw := runEquiv(t, p, sys, ow)
	if !bytes.Equal(sh, sw) {
		diff := rh.Snapshot().Diff(rw.Snapshot())
		for i, d := range diff {
			if i >= 20 {
				t.Errorf("... %d more", len(diff)-i)
				break
			}
			t.Errorf("diverged: %+v", d)
		}
		t.Fatalf("heap and wheel snapshots differ (%d bytes vs %d)", len(sh), len(sw))
	}
	if rh.Cycles != rw.Cycles || rh.DrainCycles != rw.DrainCycles {
		t.Fatalf("cycle divergence: heap (%d, %d) wheel (%d, %d)",
			rh.Cycles, rh.DrainCycles, rw.Cycles, rw.DrainCycles)
	}
	if !reflect.DeepEqual(rh.LineOrder, rw.LineOrder) {
		t.Fatal("per-line coherence serialization order differs between schedulers")
	}
	if !reflect.DeepEqual(rh.Durable, rw.Durable) {
		t.Fatal("durable NVM image differs between schedulers")
	}
	w := tsoper.Generate(p.Scale(o.Scale), ch.Cores, o.Seed)
	assertCheckpointResume(t, ch, w, rh, sh)
	assertCheckpointResume(t, cw, w, rw, sw)
}

// TestSchedulerEquivalenceBenchmarks sweeps the figure roster.
func TestSchedulerEquivalenceBenchmarks(t *testing.T) {
	for _, name := range figureBenches {
		p, ok := tsoper.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		for i, seed := range equivSeeds {
			sys := equivSystems[i%len(equivSystems)]
			t.Run(fmt.Sprintf("%s/%s/seed%d", name, sys, seed), func(t *testing.T) {
				t.Parallel()
				assertEquivalent(t, p, sys, tsoper.RunOptions{Scale: 0.05, Seed: seed})
			})
		}
	}
}

// TestSchedulerEquivalenceLitmus drives the Px86 litmus corpus through
// both schedulers across eight jitter seeds and demands byte-identical
// serialized exploration results: the same crash points harvested, the
// same durable outcomes reached with the same witnesses, the same checker
// verdicts. Crash-point cycles are part of the serialized form, so any
// scheduler-dependent event reordering surfaces as a byte diff.
func TestSchedulerEquivalenceLitmus(t *testing.T) {
	tests, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		tt := tt
		for _, seed := range equivSeeds {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", tt.Name, seed), func(t *testing.T) {
				t.Parallel()
				var blobs [][]byte
				for _, kind := range []sim.SchedulerKind{sim.SchedulerHeap, sim.SchedulerWheel} {
					o := litmus.Default()
					o.Scheduler = kind
					o.Perturbs = []litmus.Perturb{{Jitter: seed}}
					o.Coverage = false // one perturbation cannot cover alone
					r := litmus.Explore(tt, o)
					if err := r.Err(); err != nil {
						t.Fatal(err)
					}
					blob, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					blobs = append(blobs, blob)
				}
				if !bytes.Equal(blobs[0], blobs[1]) {
					t.Fatalf("heap and wheel litmus explorations diverge:\nheap:  %s\nwheel: %s",
						blobs[0], blobs[1])
				}
			})
		}
	}
}

// TestCheckpointEquivalenceLitmus drives every litmus-corpus workload
// through the machine directly under both schedulers, checkpointing at the
// midpoint and resuming: snapshots, per-line coherence order, and durable
// image must be byte-identical to the straight-through run. (Explore's own
// crash sweeps stay checkpoint-free; this covers the workloads they run.)
func TestCheckpointEquivalenceLitmus(t *testing.T) {
	tests, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		tt := tt
		for _, seed := range equivSeeds {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", tt.Name, seed), func(t *testing.T) {
				t.Parallel()
				for _, kind := range []sim.SchedulerKind{sim.SchedulerHeap, sim.SchedulerWheel} {
					cfg := machine.TableI(machine.TSOPER)
					cfg.Cores = len(tt.Cores)
					cfg.Scheduler = kind
					w := tt.Workload(litmus.Perturb{Jitter: seed})

					straight, err := machine.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := straight.RunChecked(w)
					if err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					if err := rs.Snapshot().WriteJSON(&want); err != nil {
						t.Fatal(err)
					}
					assertCheckpointResume(t, cfg, w, rs, want.Bytes())
				}
			})
		}
	}
}

// TestSchedulerEquivalencePrograms sweeps the genuinely-new workload-VM
// library programs — the scenarios the profile generator cannot express —
// under heap vs wheel. Programs compile to ordinary per-core op streams, so
// the same byte-identity bar applies: full snapshot, coherence order, and
// durable image.
func TestSchedulerEquivalencePrograms(t *testing.T) {
	for _, name := range []string{"producer-consumer-ring", "work-stealing-deque", "log-structured-writer"} {
		p, err := tsoper.LoadProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range equivSeeds {
			sys := equivSystems[i%len(equivSystems)]
			seed := seed
			t.Run(fmt.Sprintf("%s/%s/seed%d", name, sys, seed), func(t *testing.T) {
				t.Parallel()
				runProg := func(kind sim.SchedulerKind) (*tsoper.Results, []byte) {
					cfg := equivConfig(sys, tsoper.RunOptions{}, kind)
					r, err := tsoper.RunProgram(p, sys, tsoper.RunOptions{Seed: seed, Config: &cfg})
					if err != nil {
						t.Fatalf("%s/%s (scheduler %s): %v", name, sys, kind, err)
					}
					var buf bytes.Buffer
					if err := r.Snapshot().WriteJSON(&buf); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					return r, buf.Bytes()
				}
				rh, sh := runProg(sim.SchedulerHeap)
				rw, sw := runProg(sim.SchedulerWheel)
				if !bytes.Equal(sh, sw) {
					for i, d := range rh.Snapshot().Diff(rw.Snapshot()) {
						if i >= 20 {
							break
						}
						t.Errorf("diverged: %+v", d)
					}
					t.Fatalf("heap and wheel snapshots differ (%d bytes vs %d)", len(sh), len(sw))
				}
				if !reflect.DeepEqual(rh.LineOrder, rw.LineOrder) {
					t.Fatal("per-line coherence serialization order differs between schedulers")
				}
				if !reflect.DeepEqual(rh.Durable, rw.Durable) {
					t.Fatal("durable NVM image differs between schedulers")
				}

				// Checkpoint axis on each scheduler.
				for _, run := range []struct {
					kind sim.SchedulerKind
					res  *tsoper.Results
					want []byte
				}{{sim.SchedulerHeap, rh, sh}, {sim.SchedulerWheel, rw, sw}} {
					cfg := equivConfig(sys, tsoper.RunOptions{}, run.kind)
					w, err := tsoper.CompileProgram(p, cfg, seed)
					if err != nil {
						t.Fatal(err)
					}
					assertCheckpointResume(t, cfg, w, run.res, run.want)
				}
			})
		}
	}
}

// TestSchedulerEquivalenceTardisLitmus is the protocol axis of the
// differential suite: the tardis timestamp backend must be exactly as
// scheduler-deterministic as the sharing-list default. Every corpus test
// explores under heap and wheel on tardis and the serialized results must
// be byte-identical — crash-point cycles, witnesses, and checker verdicts
// included. Four jitter seeds keep the sweep affordable next to the
// eight-seed SLC pass above.
func TestSchedulerEquivalenceTardisLitmus(t *testing.T) {
	tests, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		tt := tt
		for _, seed := range equivSeeds[:4] {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", tt.Name, seed), func(t *testing.T) {
				t.Parallel()
				var blobs [][]byte
				for _, kind := range []sim.SchedulerKind{sim.SchedulerHeap, sim.SchedulerWheel} {
					o := litmus.Default()
					o.Scheduler = kind
					o.Coherence = machine.CoherenceTardis
					o.Perturbs = []litmus.Perturb{{Jitter: seed}}
					o.Coverage = false // one perturbation cannot cover alone
					r := litmus.Explore(tt, o)
					if err := r.Err(); err != nil {
						t.Fatal(err)
					}
					if r.Protocol != "tardis" {
						t.Fatalf("result protocol %q, want tardis", r.Protocol)
					}
					blob, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					blobs = append(blobs, blob)
				}
				if !bytes.Equal(blobs[0], blobs[1]) {
					t.Fatalf("heap and wheel tardis explorations diverge:\nheap:  %s\nwheel: %s",
						blobs[0], blobs[1])
				}
			})
		}
	}
}

// TestSchedulerEquivalenceTardisAdversaries repeats the adversarial
// pressure sweep on the tardis backend: timestamp bumps and lease renewals
// replace invalidation walks, so the event population differs completely
// from SLC — and the heap/wheel byte-identity bar must hold for it too,
// checkpoint-resume axis included (via assertEquivalent).
func TestSchedulerEquivalenceTardisAdversaries(t *testing.T) {
	for _, p := range crashmc.Adversaries() {
		p := p
		for i, seed := range equivSeeds[:4] {
			sys := equivSystems[i%len(equivSystems)]
			cfg := crashmc.PressureConfig(machine.SystemKind(sys))
			t.Run(fmt.Sprintf("%s/%s/seed%d", p.Name, sys, seed), func(t *testing.T) {
				t.Parallel()
				assertEquivalent(t, p, sys, tsoper.RunOptions{
					Scale: 0.2, Seed: seed, Config: &cfg, Protocol: tsoper.ProtocolTardis,
				})
			})
		}
	}
}

// TestSchedulerEquivalenceAdversaries sweeps the crashmc adversarial
// profiles under the pressure configuration (tiny AGB, tiny AG limit,
// two-entry eviction buffers) — the regime where event ordering bugs in a
// scheduler would surface as silent durability divergence.
func TestSchedulerEquivalenceAdversaries(t *testing.T) {
	for _, p := range crashmc.Adversaries() {
		p := p
		for i, seed := range equivSeeds {
			sys := equivSystems[i%len(equivSystems)]
			cfg := crashmc.PressureConfig(machine.SystemKind(sys))
			t.Run(fmt.Sprintf("%s/%s/seed%d", p.Name, sys, seed), func(t *testing.T) {
				t.Parallel()
				assertEquivalent(t, p, sys, tsoper.RunOptions{Scale: 0.2, Seed: seed, Config: &cfg})
			})
		}
	}
}
