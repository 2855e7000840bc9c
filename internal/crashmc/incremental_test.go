package crashmc

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/checker"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faultplan"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestIncrementalMatchesFullReplay is the differential gate for the
// prefix-forked sweep: the incremental mode (one machine per ascending
// chunk, one capture per point) must produce a report byte-identical to the
// one-machine-per-point full replay. The pressure case is tsoper-bench's
// crash_campaign at a twentieth of its points.
func TestIncrementalMatchesFullReplay(t *testing.T) {
	both := []machine.SystemKind{machine.TSOPER, machine.STW}
	for _, spec := range []Spec{
		{Name: "smoke", Benchmarks: Adversaries()[:2], Systems: both, Seed: 13, Points: 25, Parallel: 4, Detail: true},
		{Name: "pressure", Benchmarks: Adversaries(), Systems: both, Seed: 42, Points: 20, Parallel: 4, Detail: true, Config: PressureConfig},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			fast, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.replay = true
			slow, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			fb, _ := json.Marshal(fast)
			sb, _ := json.Marshal(slow)
			if string(fb) != string(sb) {
				t.Fatalf("incremental and full-replay reports differ:\nincremental: %s\nfull: %s", fb, sb)
			}
		})
	}
}

// TestSweepMatchesReplayUnderFaultPresets holds the forked sweep to its
// replay reference while runtime faults are being injected and recovered:
// under every fault preset, Sweep and Replay must reach the same crash state
// at each of 12 ascending points over the faulted horizon.
func TestSweepMatchesReplayUnderFaultPresets(t *testing.T) {
	bench := Adversaries()[0].Scale(0.3)
	type summary struct {
		groups, durable, image int
		stalled                bool
		ledger                 faultplan.Counts
		verdict                string
	}
	summarize := func(cs *machine.CrashState) summary {
		s := summary{
			groups:  len(cs.Groups),
			durable: cs.DurableGroups(),
			image:   len(cs.Image),
			stalled: cs.Stalled,
			ledger:  cs.FaultCounts,
		}
		if err := checker.Check(cs); err != nil {
			s.verdict = err.Error()
		}
		return s
	}
	for _, sch := range faultplan.Presets() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := machine.TableI(machine.TSOPER)
			cfg.Faults = &sch
			w := trace.Generate(bench, cfg.Cores, 42)
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.RunChecked(w)
			if err != nil {
				t.Fatal(err)
			}
			points := make([]uint64, 12)
			for i := range points {
				points[i] = uint64(res.DrainCycles) * uint64(i+1) / uint64(len(points)+1)
			}

			var forked, replayed []summary
			if err := Sweep(cfg, w, points, func(_ int, cs *machine.CrashState) {
				forked = append(forked, summarize(cs))
			}); err != nil {
				t.Fatal(err)
			}
			if err := Replay(cfg, w, points, func(_ int, cs *machine.CrashState) {
				replayed = append(replayed, summarize(cs))
			}); err != nil {
				t.Fatal(err)
			}
			if len(forked) != len(points) || len(replayed) != len(points) {
				t.Fatalf("visited %d forked and %d replayed states, want %d", len(forked), len(replayed), len(points))
			}
			for i := range points {
				if forked[i] != replayed[i] {
					t.Fatalf("at %d: forked %+v, replayed %+v", points[i], forked[i], replayed[i])
				}
			}
			if forked[len(points)-1].ledger.Injected() == 0 {
				t.Fatalf("no fault injected by cycle %d: the preset went untested", points[len(points)-1])
			}
		})
	}
}

// TestCaptureCrashStateIsolated verifies a capture is a true snapshot: two
// captures taken from one advancing machine must equal the states two
// dedicated full replays produce, and the earlier capture must not change
// when the machine advances past it. Captures share retired groups — with
// the machine and with each other — and copy every other group; neither the
// checker nor a group-corrupting fault may change a shared group.
func TestCaptureCrashStateIsolated(t *testing.T) {
	bench := Adversaries()[0]
	cfg := machine.TableI(machine.TSOPER)
	spec := Spec{Seed: 5}
	tp := &tuple{name: bench.Name, bench: bench, system: machine.TSOPER, cfg: cfg}

	a, b := sim.Time(4_000), sim.Time(30_000)

	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.StartCrashRun(tp.workload(cfg, spec.Seed))
	m.AdvanceTo(a)
	capA := m.CaptureCrashState()
	groupsAtA := len(capA.Groups)
	imageAtA := len(capA.Image)
	m.AdvanceTo(b)
	capB := m.CaptureCrashState()

	if len(capA.Groups) != groupsAtA || len(capA.Image) != imageAtA {
		t.Fatalf("capture at %d mutated by advancing to %d", a, b)
	}

	shared := 0
	for i, g := range capA.Groups {
		switch {
		case g.State() == core.Retired:
			if capB.Groups[i] != g {
				t.Fatalf("retired %v is copied, not shared, between captures", g)
			}
			shared++
		case capB.Groups[i] == g:
			t.Fatalf("%v can still change but is shared between captures", g)
		}
	}
	if shared == 0 {
		t.Fatalf("no retired group at cycle %d: sharing untested", a)
	}

	for _, cs := range []*machine.CrashState{capA, capB} {
		before := encodeCrashState(cs)
		if err := checker.Check(cs); err != nil {
			t.Fatalf("at %d: %v", cs.At, err)
		}
		if !bytes.Equal(before, encodeCrashState(cs)) {
			t.Fatalf("at %d: checker.Check changed the crash state", cs.At)
		}
	}

	// A fault that corrupts a group must copy it first: neither the earlier
	// capture nor the live journal may change.
	for _, f := range []machine.CrashFault{machine.FaultUndurablePrefix, machine.FaultSkipDep} {
		fcfg := cfg
		fcfg.CrashFault = f
		fm, err := machine.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		fm.StartCrashRun(tp.workload(fcfg, spec.Seed))
		fm.AdvanceTo(a)
		first := fm.CaptureCrashState()
		fm.AdvanceTo(b)
		firstEnc := encodeCrashState(first)
		live, err := fm.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		second := fm.CaptureCrashState()
		if !first.FaultApplied || !second.FaultApplied {
			t.Fatalf("%v found no target (at %d: %v, at %d: %v)", f, a, first.FaultApplied, b, second.FaultApplied)
		}
		if !bytes.Equal(firstEnc, encodeCrashState(first)) {
			t.Fatalf("%v at %d changed the capture taken at %d", f, b, a)
		}
		after, err := fm.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, after) {
			t.Fatalf("%v at %d changed the live machine state", f, b)
		}

		// RunWithCrash's state aliases the live journal outright; the fault
		// must still leave the machine as a clean crash run leaves it.
		if got, want := crashRunState(t, fcfg, tp.workload(fcfg, spec.Seed), b),
			crashRunState(t, cfg, tp.workload(cfg, spec.Seed), b); !bytes.Equal(got, want) {
			t.Fatalf("%v injected by RunWithCrash at %d changed the live machine state: %v",
				f, b, ckpt.CompareState(want, got))
		}
	}

	for _, tc := range []struct {
		at  sim.Time
		cap *machine.CrashState
	}{{a, capA}, {b, capB}} {
		ref, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs := ref.RunWithCrash(tp.workload(cfg, spec.Seed), tc.at)
		if cs.At != tc.cap.At {
			t.Fatalf("at %d: crash cycle %d vs %d", tc.at, cs.At, tc.cap.At)
		}
		if len(cs.Groups) != len(tc.cap.Groups) || len(cs.DurableOrder) != len(tc.cap.DurableOrder) {
			t.Fatalf("at %d: journal %d/%d vs capture %d/%d", tc.at,
				len(cs.Groups), len(cs.DurableOrder), len(tc.cap.Groups), len(tc.cap.DurableOrder))
		}
		for i, g := range cs.Groups {
			cg := tc.cap.Groups[i]
			if g.ID != cg.ID || g.State() != cg.State() || len(g.DirtyLines()) != len(cg.DirtyLines()) {
				t.Fatalf("at %d: group %d differs: (%d,%v,%d) vs (%d,%v,%d)", tc.at, i,
					g.ID, g.State(), len(g.DirtyLines()), cg.ID, cg.State(), len(cg.DirtyLines()))
			}
		}
		if len(cs.Image) != len(tc.cap.Image) {
			t.Fatalf("at %d: image size %d vs %d", tc.at, len(cs.Image), len(tc.cap.Image))
		}
		for l, v := range cs.Image {
			if tc.cap.Image[l] != v {
				t.Fatalf("at %d: image[%v] %v vs %v", tc.at, l, v, tc.cap.Image[l])
			}
		}
		for i := range cs.StoresIssued {
			if cs.StoresIssued[i] != tc.cap.StoresIssued[i] {
				t.Fatalf("at %d: stores issued[%d] %d vs %d", tc.at, i,
					cs.StoresIssued[i], tc.cap.StoresIssued[i])
			}
		}
	}
}

// crashRunState runs a fresh machine to a crash at cycle at and returns the
// machine's checkpointed state afterwards.
func crashRunState(t *testing.T, cfg machine.Config, w *trace.Workload, at sim.Time) []byte {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RunWithCrash(w, at)
	blob, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := ckpt.DecodeBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// encodeCrashState serializes everything the checker reads and a fault may
// corrupt: every group's full state in journal order, the durable order, the
// recovered image and the per-line coherence order.
func encodeCrashState(cs *machine.CrashState) []byte {
	var w ckpt.Writer
	w.Section("crash")
	w.U32(uint32(len(cs.Groups)))
	for _, g := range cs.Groups {
		g.EncodeState(&w)
	}
	w.U32(uint32(len(cs.DurableOrder)))
	for _, g := range cs.DurableOrder {
		w.U64(g.ID)
	}
	for _, l := range sortedLines(cs.Image) {
		v := cs.Image[l]
		w.U64(uint64(l))
		w.Int(v.Core)
		w.U64(v.Seq)
	}
	for _, l := range sortedLines(cs.LineOrder) {
		w.U64(uint64(l))
		w.U32(uint32(len(cs.LineOrder[l])))
		for _, v := range cs.LineOrder[l] {
			w.Int(v.Core)
			w.U64(v.Seq)
		}
	}
	return w.State()
}

func sortedLines[V any](m map[mem.Line]V) []mem.Line {
	lines := make([]mem.Line, 0, len(m))
	for l := range m {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	return lines
}
