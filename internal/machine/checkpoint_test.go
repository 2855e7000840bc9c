package machine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/trace"
)

func ckptWorkload(t *testing.T, seed int64) *trace.Workload {
	t.Helper()
	p := trace.Profile{
		Name: "ckpt-smoke", OpsPerCore: 400, StoreFrac: 0.45,
		SharedFrac: 0.4, SharedLines: 64, PrivateLines: 128,
		HotFrac: 0.5, HotLines: 4, Locality: 0.3,
		SyncPeriod: 60, CSStores: 3, ComputeMean: 2,
	}
	return trace.Generate(p, 4, seed)
}

func ckptConfig(system SystemKind) Config {
	cfg := TableI(system)
	cfg.Cores = 4
	return cfg
}

// runStraight runs cfg over the workload to completion, returning results.
func runStraight(t *testing.T, cfg Config, w *trace.Workload) *Results {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RunChecked(w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCheckpointRestoreMidExec checkpoints mid-execution, restores, finishes
// the run, and requires results identical to a straight-through run.
func TestCheckpointRestoreMidExec(t *testing.T) {
	for _, system := range []SystemKind{TSOPER, STW, BSPSLCAGB, HWRP} {
		t.Run(system.String(), func(t *testing.T) {
			cfg := ckptConfig(system)
			w := ckptWorkload(t, 11)
			want := runStraight(t, cfg, w)

			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Start(w)
			mid := want.Cycles / 2
			if done, err := m.Advance(mid); err != nil {
				t.Fatal(err)
			} else if done {
				t.Fatalf("run finished before midpoint %d", mid)
			}
			blob, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			r, err := Restore(cfg, w, blob)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := sim.Time(0); r.Now() > mid {
				_ = got
				t.Fatalf("restored machine at cycle %d, want <= %d", r.Now(), mid)
			}
			if done, err := r.Advance(sim.MaxTime); err != nil || !done {
				t.Fatalf("resume: done=%v err=%v", done, err)
			}
			got := r.Results()
			assertSameResults(t, want, got)
		})
	}
}

// TestCheckpointRestoreMidDrain lands a checkpoint inside the end-of-run
// drain phase and requires the resumed run to finish identically.
func TestCheckpointRestoreMidDrain(t *testing.T) {
	cfg := ckptConfig(TSOPER)
	w := ckptWorkload(t, 7)
	want := runStraight(t, cfg, w)
	if want.DrainCycles <= want.Cycles {
		t.Fatalf("no drain window: exec %d drain %d", want.Cycles, want.DrainCycles)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(w)
	at := want.Cycles + (want.DrainCycles-want.Cycles)/2
	done, err := m.Advance(at)
	if err != nil {
		t.Fatal(err)
	}
	blob, errC := m.Checkpoint()
	if errC != nil {
		t.Fatal(errC)
	}
	if !done && m.Phase() != "drain" {
		t.Logf("phase at %d: %s", at, m.Phase())
	}

	r, err := Restore(cfg, w, blob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if done, err := r.Advance(sim.MaxTime); err != nil || !done {
		t.Fatalf("resume: done=%v err=%v", done, err)
	}
	assertSameResults(t, want, r.Results())
}

// TestRestoreRejectsConfigMismatch restores into a machine whose canonical
// config hash differs and requires a typed rejection.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	cfg := ckptConfig(TSOPER)
	w := ckptWorkload(t, 3)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(w)
	if _, err := m.Advance(2000); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.AGLimit = cfg.AGLimit + 1
	if _, err := Restore(other, w, blob); !errors.Is(err, ckpt.ErrConfigMismatch) {
		t.Fatalf("got %v, want ErrConfigMismatch", err)
	}
	otherSys := ckptConfig(HWRP)
	if _, err := Restore(otherSys, w, blob); !errors.Is(err, ckpt.ErrConfigMismatch) {
		t.Fatalf("got %v, want ErrConfigMismatch", err)
	}
}

// TestRestoreRejectsWrongWorkload verifies the workload binding: restoring
// a checkpoint under a different workload must fail with a divergence that
// names the workload, caught from the header's digest before any replay,
// not silently produce a wrong machine.
func TestRestoreRejectsWrongWorkload(t *testing.T) {
	cfg := ckptConfig(TSOPER)
	w := ckptWorkload(t, 3)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start(w)
	if _, err := m.Advance(4000); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restore(cfg, ckptWorkload(t, 4), blob)
	if !errors.Is(err, ckpt.ErrDivergence) {
		t.Fatalf("got %v, want ErrDivergence", err)
	}
	if !strings.Contains(err.Error(), `workload "ckpt-smoke"`) {
		t.Fatalf("divergence does not name the workload: %v", err)
	}
}

// TestCheckpointCrossScheduler checkpoints under one scheduler and restores
// under the other: the blob's state section is scheduler-independent, so
// both directions must succeed and finish identically.
func TestCheckpointCrossScheduler(t *testing.T) {
	base := ckptConfig(TSOPER)
	w := ckptWorkload(t, 5)
	want := runStraight(t, base, w)

	for _, dir := range []struct {
		name     string
		from, to sim.SchedulerKind
	}{
		{"wheel-to-heap", sim.SchedulerWheel, sim.SchedulerHeap},
		{"heap-to-wheel", sim.SchedulerHeap, sim.SchedulerWheel},
	} {
		t.Run(dir.name, func(t *testing.T) {
			cfg := base
			cfg.Scheduler = dir.from
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Start(w)
			if _, err := m.Advance(want.Cycles / 2); err != nil {
				t.Fatal(err)
			}
			blob, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = dir.to
			r, err := Restore(cfg, w, blob)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if done, err := r.Advance(sim.MaxTime); err != nil || !done {
				t.Fatalf("resume: done=%v err=%v", done, err)
			}
			assertSameResults(t, want, r.Results())
		})
	}
}

// assertSameResults requires the observable outcome of two runs to match:
// cycle counts, traffic, the durable image, and the per-line store order.
func assertSameResults(t *testing.T, want, got *Results) {
	t.Helper()
	if want.Cycles != got.Cycles || want.DrainCycles != got.DrainCycles {
		t.Fatalf("cycles: want (%d,%d), got (%d,%d)",
			want.Cycles, want.DrainCycles, got.Cycles, got.DrainCycles)
	}
	if want.CoherenceWrites != got.CoherenceWrites ||
		want.PersistWrites != got.PersistWrites ||
		want.NVMWrites != got.NVMWrites ||
		want.Stores != got.Stores || want.Loads != got.Loads {
		t.Fatalf("traffic diverged: want %+v stores=%d, got %+v stores=%d",
			want.CoherenceWrites, want.Stores, got.CoherenceWrites, got.Stores)
	}
	if len(want.Durable) != len(got.Durable) {
		t.Fatalf("durable image size: want %d, got %d", len(want.Durable), len(got.Durable))
	}
	for l, v := range want.Durable {
		if got.Durable[l] != v {
			t.Fatalf("durable[%v]: want %v, got %v", l, v, got.Durable[l])
		}
	}
	if len(want.LineOrder) != len(got.LineOrder) {
		t.Fatalf("line order size: want %d, got %d", len(want.LineOrder), len(got.LineOrder))
	}
	for l, vs := range want.LineOrder {
		gvs := got.LineOrder[l]
		if len(vs) != len(gvs) {
			t.Fatalf("line order[%v] length: want %d, got %d", l, len(vs), len(gvs))
		}
		for i := range vs {
			if vs[i] != gvs[i] {
				t.Fatalf("line order[%v][%d]: want %v, got %v", l, i, vs[i], gvs[i])
			}
		}
	}
}

// TestCheckpointRestoreUnderFaultPresets lands a checkpoint in the drain
// window of a faulty run, for every faultplan preset. Restore's state
// byte-compare covers the fault schedule's RNG cursors, the injection
// ledger, per-rank degradation flags, and the re-armed drain watchdog —
// a restore that succeeds *and* finishes with an identical ledger proves
// all of that survived the round trip.
func TestCheckpointRestoreUnderFaultPresets(t *testing.T) {
	for _, name := range faultplan.PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, ok := faultplan.Preset(name)
			if !ok {
				t.Fatalf("preset %q vanished", name)
			}
			cfg := ckptConfig(TSOPER)
			cfg.Faults = &spec
			w := ckptWorkload(t, 11)
			want := runStraight(t, cfg, w)
			if want.Faults == nil {
				t.Fatal("faulty run produced no ledger")
			}

			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Start(ckptWorkload(t, 11))
			at := want.Cycles + (want.DrainCycles-want.Cycles)/2
			if _, err := m.Advance(at); err != nil {
				t.Fatal(err)
			}
			blob, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			r, err := Restore(cfg, ckptWorkload(t, 11), blob)
			if err != nil {
				t.Fatalf("restore mid-drain under %s: %v", name, err)
			}
			if done, err := r.Advance(sim.MaxTime); err != nil || !done {
				t.Fatalf("resume under %s: done=%v err=%v", name, done, err)
			}
			got := r.Results()
			assertSameResults(t, want, got)
			if got.Faults == nil {
				t.Fatal("resumed run lost the fault ledger")
			}
			if *got.Faults != *want.Faults {
				t.Fatalf("fault ledger diverged after resume:\nwant %+v\ngot  %+v", *want.Faults, *got.Faults)
			}
		})
	}
}
