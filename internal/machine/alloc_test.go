package machine_test

import (
	"runtime"
	"testing"

	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bytesPerRun averages the heap bytes fn allocates over runs calls, on one
// P so no other goroutine's allocations land in the count. Like
// testing.AllocsPerRun, but for bytes: per-line state is a few large
// objects, so bytes catch an oversized map where an object count would not.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up: first-call allocations (lazy package state) are not per-run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestLitmusMachineAllocBytes gates what a litmus-sized machine allocates.
// Every per-line structure is sized in Start from the workload's op count,
// so a 6-op test must not pay for Table I's caches: New stays free of
// per-line maps and slabs, and a whole run of corpus test sb (2 cores)
// stays far below the ~600 KB the Table I-sized maps cost. The bounds
// depend only on the Go runtime's allocation sizes, not on the host's speed.
func TestLitmusMachineAllocBytes(t *testing.T) {
	tests, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	var w *trace.Workload
	for _, lt := range tests {
		if lt.Name == "sb" {
			w = lt.Workload(litmus.Perturb{})
		}
	}
	if w == nil {
		t.Fatal("corpus test sb missing")
	}
	cfg := machine.TableI(machine.TSOPER)
	cfg.Cores = len(w.Cores)

	newOnly := bytesPerRun(20, func() {
		if _, err := machine.New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	run := bytesPerRun(20, func() {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(w)
		if _, err := m.Advance(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sb, %d cores: New %d B, New+Start+Advance %d B", cfg.Cores, newOnly, run)
	const newMax, runMax = 100 << 10, 150 << 10
	if newOnly > newMax {
		t.Errorf("New allocates %d B, want <= %d: per-line state belongs in Start", newOnly, newMax)
	}
	if run > runMax {
		t.Errorf("New+Start+Advance of sb allocates %d B, want <= %d", run, runMax)
	}
}

// TestRosterRunAllocBytes gates what one Table I TSOPER run allocates for
// radix, fft and ocean_cp at scale 0.05, seed 1001: the benchmark jobs of
// the service smoke mix. Each fact has one index: a cache finds a line by
// scanning its set, a line's newest version is the tail of its store log,
// a group ID indexes the journal, and the AGB counts buffered versions per
// line. On Go 1.24.0 the runs allocate about 1.36 / 0.82 / 0.81 MB, and
// 1.87 / 1.23 / 1.30 MB with shadow maps beside those four; each bound
// sits near the midpoint, so the gate fails with the shadow maps and
// leaves room for another Go release's allocation sizes. Like the litmus
// gate, the bounds depend on the Go runtime, not on the host's speed.
func TestRosterRunAllocBytes(t *testing.T) {
	bounds := []struct {
		bench string
		max   uint64
	}{
		{"radix", 1_580_000},
		{"fft", 1_000_000},
		{"ocean_cp", 1_040_000},
	}
	cfg := machine.TableI(machine.TSOPER)
	for _, b := range bounds {
		p, ok := trace.ByName(b.bench)
		if !ok {
			t.Fatalf("benchmark %s missing", b.bench)
		}
		w := trace.Generate(p.Scale(0.05), cfg.Cores, 1001)
		got := bytesPerRun(10, func() {
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunChecked(w); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d B per run", b.bench, got)
		if got > b.max {
			t.Errorf("%s: one run allocates %d B, want <= %d", b.bench, got, b.max)
		}
	}
}
