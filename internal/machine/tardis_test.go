package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/trace"
)

func tardisConfig(system SystemKind) Config {
	cfg := TableI(system)
	cfg.Coherence = CoherenceTardis
	return cfg
}

func TestTardisAllSystemsComplete(t *testing.T) {
	for _, kind := range Systems() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := tardisConfig(kind)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := trace.Generate(smallProfile(300), cfg.Cores, 1)
			r := m.Run(w)
			if r.Cycles == 0 || r.Stores == 0 || r.Loads == 0 {
				t.Fatalf("degenerate run: %+v", r)
			}
			if err := m.tardis.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTardisFinalDurableImageComplete: strict persistency semantics are
// protocol-independent — under tardis the drain must still leave NVM holding
// exactly the final version of every stored line.
func TestTardisFinalDurableImageComplete(t *testing.T) {
	for _, kind := range []SystemKind{STW, TSOPER} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := tardisConfig(kind)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := trace.Generate(smallProfile(250), cfg.Cores, 3)
			r := m.Run(w)
			for line, order := range r.LineOrder {
				want := order[len(order)-1]
				if got := r.Durable[line]; got != want {
					t.Fatalf("line %v durable %v, want final version %v", line, got, want)
				}
			}
		})
	}
}

// TestTardisRenewalsOccur: a sharing-heavy workload must exercise the lease
// machinery — some private hits ride a live lease, others pay the renewal
// round trip — and writes must jump logical time past read leases.
func TestTardisRenewalsOccur(t *testing.T) {
	cfg := tardisConfig(TSOPER)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Generate(smallProfile(500), cfg.Cores, 21)
	r := m.Run(w)
	if n := r.Set.CounterValue("tardis.renewals"); n == 0 {
		t.Fatal("no lease renewals on a sharing-heavy workload")
	}
	if n := r.Set.CounterValue("tardis.lease_hits"); n == 0 {
		t.Fatal("no lease-valid private hits")
	}
	if n := r.Set.CounterValue("tardis.ts_jumps"); n == 0 {
		t.Fatal("no logical-time jumps past read leases")
	}
}

func TestTardisDeterministic(t *testing.T) {
	run := func() *Results {
		cfg := tardisConfig(TSOPER)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.Run(trace.Generate(smallProfile(200), cfg.Cores, 7))
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.PersistWrites != r2.PersistWrites ||
		r1.NVMWrites != r2.NVMWrites || len(r1.Groups) != len(r2.Groups) {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
}

// TestTardisCheckpointRestoreMidExec: the tardis checkpoint section must
// round-trip — a restored machine finishes identically to a straight run.
func TestTardisCheckpointRestoreMidExec(t *testing.T) {
	cfg := ckptConfig(TSOPER)
	cfg.Coherence = CoherenceTardis
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
	if done, err := r.Advance(sim.MaxTime); err != nil || !done {
		t.Fatalf("resume: done=%v err=%v", done, err)
	}
	assertSameResults(t, want, r.Results())
}

// TestTardisRestoreRejectsLedgerSection: a tardis checkpoint whose
// timestamp section carries the name of the retired pending-ledger format
// ("tardis") must fail Restore with a typed divergence naming the section —
// never a panic, never a silent restore.
func TestTardisRestoreRejectsLedgerSection(t *testing.T) {
	cfg := ckptConfig(TSOPER)
	cfg.Coherence = CoherenceTardis
	w := ckptWorkload(t, 11)
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
	h, state, err := ckpt.DecodeBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	name := func(s string) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(s))), s...)
	}
	if !bytes.Contains(state, name("tardis.ts")) {
		t.Fatal("tardis checkpoint has no tardis.ts section")
	}
	old := ckpt.EncodeBlob(h, bytes.Replace(state, name("tardis.ts"), name("tardis"), 1))

	_, err = Restore(cfg, w, old)
	if !errors.Is(err, ckpt.ErrDivergence) {
		t.Fatalf("got %v, want ErrDivergence", err)
	}
	if !strings.Contains(err.Error(), `"tardis"`) {
		t.Fatalf("divergence does not name the old section: %v", err)
	}
}
