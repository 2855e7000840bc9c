package checker

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func crashProfile() trace.Profile {
	return trace.Profile{
		Name: "crash", OpsPerCore: 400, StoreFrac: 0.5, SharedFrac: 0.5,
		SharedLines: 48, PrivateLines: 48, HotFrac: 0.5, HotLines: 6,
		Locality: 0.3, SyncPeriod: 120, CSStores: 2, ComputeMean: 2,
	}
}

func buildFor(t *testing.T, kind machine.SystemKind, seed int64) func() (*machine.Machine, *trace.Workload) {
	t.Helper()
	return func() (*machine.Machine, *trace.Workload) {
		cfg := machine.TableI(kind)
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, trace.Generate(crashProfile(), cfg.Cores, seed)
	}
}

// The headline property test of the reproduction: crash TSOPER (and STW) at
// many points through the run, a fresh machine per crash; every recovered
// image must be a TSO-consistent cut, and some must catch the machine with
// only part of its journal durable.
func TestCrashConsistencyCampaign(t *testing.T) {
	for _, kind := range []machine.SystemKind{machine.TSOPER, machine.STW} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				build := buildFor(t, kind, seed)
				partial := 0
				for at := sim.Time(500); at <= 40000; at += 1700 {
					m, w := build()
					cs := m.RunWithCrash(w, at)
					if d := cs.DurableGroups(); d > 0 && d < len(cs.Groups) {
						partial++
					}
					if err := Check(cs); err != nil {
						t.Fatalf("seed %d: crash at cycle %d: %v", seed, at, err)
					}
				}
				if partial == 0 {
					t.Fatalf("seed %d: campaign never hit a partially durable state — too weak", seed)
				}
			}
		})
	}
}

func TestCheckRejectsRelaxedSystems(t *testing.T) {
	cs := &machine.CrashState{System: machine.HWRP}
	if err := Check(cs); err == nil {
		t.Fatal("HW-RP must not be accepted as strict")
	}
}

// Corrupt a genuine crash state in targeted ways; the checker must catch
// each corruption.
func TestCheckerDetectsCorruptions(t *testing.T) {
	build := buildFor(t, machine.TSOPER, 5)
	freshState := func() *machine.CrashState {
		m, w := build()
		return m.RunWithCrash(w, 20000)
	}

	base := freshState()
	if err := Check(base); err != nil {
		t.Fatalf("genuine state rejected: %v", err)
	}
	var durableWithLines *core.Group
	for _, g := range base.DurableOrder {
		if g.DirtyLen() > 0 {
			durableWithLines = g
			break
		}
	}
	if durableWithLines == nil {
		t.Fatal("campaign state has no durable group with lines; pick another crash point")
	}

	t.Run("torn-group", func(t *testing.T) {
		cs := freshState()
		// Drop one line of a durable group from the image: partial persist.
		for _, g := range cs.DurableOrder {
			if g.DirtyLen() > 0 {
				for l := range g.DirtyLines() {
					delete(cs.Image, l)
					break
				}
				break
			}
		}
		err := Check(cs)
		if err == nil || !strings.Contains(err.Error(), "atomicity") {
			t.Fatalf("torn group not detected: %v", err)
		}
	})

	t.Run("leaked-version", func(t *testing.T) {
		cs := freshState()
		// Inject a version no durable group wrote.
		cs.Image[mem.Line(0xdead)] = mem.Version{Core: 0, Seq: 999999}
		err := Check(cs)
		if err == nil {
			t.Fatal("leaked write not detected")
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		cs := freshState()
		for _, g := range cs.DurableOrder {
			if g.DirtyLen() > 0 {
				for l := range g.DirtyLines() {
					cs.Image[l] = mem.Version{Core: 7, Seq: 123456}
					break
				}
				break
			}
		}
		err := Check(cs)
		if err == nil || !strings.Contains(err.Error(), "atomicity") {
			t.Fatalf("wrong version not detected: %v", err)
		}
	})
}

// A state with several bad lines gets the same Violation on every check:
// the one naming its lowest-addressed bad line.
func TestViolationDetailIsDeterministic(t *testing.T) {
	m, w := buildFor(t, machine.TSOPER, 5)()
	cs := m.RunWithCrash(w, 20000)
	var lines []mem.Line
	for l, v := range cs.Image {
		if !v.IsInitial() {
			lines = append(lines, l)
		}
	}
	if len(lines) < 3 {
		t.Fatalf("crash state recovers %d written lines, want at least 3", len(lines))
	}
	slices.Sort(lines)
	for _, l := range []mem.Line{lines[0], lines[len(lines)/2], lines[len(lines)-1]} {
		delete(cs.Image, l) // three torn groups
	}
	var first string
	for i := 0; i < 50; i++ {
		err := Check(cs)
		var v *Violation
		if !errors.As(err, &v) || v.Rule != "atomicity" {
			t.Fatalf("check %d: %v, want an atomicity violation", i, err)
		}
		if i == 0 {
			first = v.Detail
		} else if v.Detail != first {
			t.Fatalf("check %d reports %q, check 0 reported %q", i, v.Detail, first)
		}
	}
	if !strings.HasPrefix(first, "line "+lines[0].String()+" ") {
		t.Fatalf("violation %q does not name the lowest torn line %v", first, lines[0])
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Rule: "x", Detail: "y"}
	if !strings.Contains(v.Error(), "x") || !strings.Contains(v.Error(), "y") {
		t.Fatalf("error text: %s", v.Error())
	}
}
