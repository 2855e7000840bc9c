package machine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// smallProfile is a fast, contention-heavy workload for machine tests.
func smallProfile(ops int) trace.Profile {
	return trace.Profile{
		Name: "test", OpsPerCore: ops, StoreFrac: 0.45, SharedFrac: 0.5,
		SharedLines: 64, PrivateLines: 64, HotFrac: 0.4, HotLines: 8,
		Locality: 0.3, SyncPeriod: 100, CSStores: 2, ComputeMean: 2,
	}
}

func runSmall(t *testing.T, kind SystemKind, ops int, seed int64) *Results {
	t.Helper()
	cfg := TableI(kind)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Generate(smallProfile(ops), cfg.Cores, seed)
	return m.Run(w)
}

func TestAllSystemsComplete(t *testing.T) {
	for _, kind := range Systems() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := runSmall(t, kind, 300, 1)
			if r.Cycles == 0 {
				t.Fatal("no cycles elapsed")
			}
			if r.Stores == 0 || r.Loads == 0 {
				t.Fatalf("degenerate run: %+v", r)
			}
			if r.DrainCycles < r.Cycles {
				t.Fatal("drain finished before execution")
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1 := runSmall(t, TSOPER, 200, 7)
	r2 := runSmall(t, TSOPER, 200, 7)
	if r1.Cycles != r2.Cycles || r1.PersistWrites != r2.PersistWrites ||
		r1.NVMWrites != r2.NVMWrites || len(r1.Groups) != len(r2.Groups) {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
}

// Strict-persistency systems must leave NVM holding exactly the final
// version of every stored line after the end-of-run drain.
func TestFinalDurableImageComplete(t *testing.T) {
	for _, kind := range []SystemKind{STW, TSOPER} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := runSmall(t, kind, 250, 3)
			for line, order := range r.LineOrder {
				want := order[len(order)-1]
				if got := r.Durable[line]; got != want {
					t.Fatalf("line %v durable %v, want final version %v", line, got, want)
				}
			}
		})
	}
}

func TestTSOPERGroupsAllRetired(t *testing.T) {
	r := runSmall(t, TSOPER, 250, 5)
	if len(r.Groups) == 0 {
		t.Fatal("no groups journaled")
	}
	for _, g := range r.Groups {
		if g.State() != core.Retired {
			t.Fatalf("group %v not retired after drain", g)
		}
	}
	if err := core.CheckAcyclic(r.Groups); err != nil {
		t.Fatal(err)
	}
}

func TestAGSizeLimitRespected(t *testing.T) {
	cfg := TableI(TSOPER)
	cfg.AGLimit = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Generate(smallProfile(300), cfg.Cores, 2)
	r := m.Run(w)
	for _, g := range r.Groups {
		if g.Size() > 8 {
			t.Fatalf("group %v exceeds limit", g)
		}
	}
	if r.AGSizes.Max() > 8 {
		t.Fatalf("max AG size %d", r.AGSizes.Max())
	}
}

// Per-line durable versions must respect the coherence write order: the
// durable version is always some version from the line's order, and since
// the drain completes everything, the final one.
func TestPerLineOrderRecorded(t *testing.T) {
	r := runSmall(t, TSOPER, 200, 9)
	if len(r.LineOrder) == 0 {
		t.Fatal("no line order recorded")
	}
	for line, order := range r.LineOrder {
		// Versions of one core must appear in increasing Seq order.
		lastSeq := map[int]uint64{}
		for _, v := range order {
			if v.Seq <= lastSeq[v.Core] {
				t.Fatalf("line %v: core %d stores out of order", line, v.Core)
			}
			lastSeq[v.Core] = v.Seq
		}
	}
}

// The relative performance ordering of Fig. 11 must hold on a contended
// workload: baseline <= HW-RP/TSOPER < STW, and BSP slower than TSOPER.
func TestSystemOrdering(t *testing.T) {
	res := map[SystemKind]*Results{}
	for _, kind := range Systems() {
		res[kind] = runSmall(t, kind, 400, 11)
	}
	base := res[Baseline].Cycles
	if res[TSOPER].Cycles < base {
		t.Fatalf("TSOPER (%d) faster than baseline (%d)?", res[TSOPER].Cycles, base)
	}
	if res[STW].Cycles <= res[TSOPER].Cycles {
		t.Errorf("STW (%d) should be slower than TSOPER (%d)", res[STW].Cycles, res[TSOPER].Cycles)
	}
	if res[BSP].Cycles <= res[TSOPER].Cycles {
		t.Errorf("BSP (%d) should be slower than TSOPER (%d)", res[BSP].Cycles, res[TSOPER].Cycles)
	}
	if res[HWRP].PersistWrites <= res[TSOPER].PersistWrites {
		t.Errorf("HW-RP persist traffic (%d) should exceed TSOPER's (%d) — less coalescing",
			res[HWRP].PersistWrites, res[TSOPER].PersistWrites)
	}
}

func TestValidateConfig(t *testing.T) {
	cfg := TableI(TSOPER)
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero cores must be rejected")
	}
	cfg = TableI(TSOPER)
	cfg.AGLimit = cfg.AGB.LinesPerSlice + 1
	if _, err := New(cfg); err == nil {
		t.Fatal("AG limit beyond AGB slice capacity must be rejected")
	}
}

func TestWorkloadCoreMismatchPanics(t *testing.T) {
	cfg := TableI(Baseline)
	m, _ := New(cfg)
	w := trace.Generate(smallProfile(50), 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("core-count mismatch did not panic")
		}
	}()
	m.Run(w)
}

func TestSystemKindStrings(t *testing.T) {
	want := map[SystemKind]string{
		Baseline: "baseline", HWRP: "hw-rp", BSP: "bsp", BSPSLC: "bsp+slc",
		BSPSLCAGB: "bsp+slc+agb", STW: "stw", TSOPER: "tsoper",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d: %q", k, k.String())
		}
	}
	if len(Systems()) != 7 {
		t.Fatalf("systems: %v", Systems())
	}
}

// Version coherence sanity: after a fully drained TSOPER run, every line's
// durable version is its newest coherent version, the last entry of its
// store log. The group journal holds each group at index ID-1, which the
// system's group lookup relies on.
func TestDurableMatchesCurrent(t *testing.T) {
	cfg := TableI(TSOPER)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Generate(smallProfile(150), cfg.Cores, 13)
	r := m.Run(w)
	if len(r.LineOrder) == 0 || len(m.journal) == 0 {
		t.Fatalf("run stored to %d lines in %d groups; the checks below need both", len(r.LineOrder), len(m.journal))
	}
	for line, vs := range r.LineOrder {
		if got, want := r.Durable[line], vs[len(vs)-1]; got != want {
			t.Fatalf("line %v durable %v, newest %v", line, got, want)
		}
	}
	for i, g := range m.journal {
		if g.ID != uint64(i+1) {
			t.Fatalf("journal[%d] holds group %d, want ID %d", i, g.ID, i+1)
		}
	}
}
