package machine

import (
	"repro/internal/core"
	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CrashState is the machine state an instant after a power failure: the
// recovered NVM image (NVM contents plus the AGB's durable super group —
// the AGB is in the persistent domain, §II-B) and the bookkeeping the
// crash-consistency checker validates it against.
type CrashState struct {
	System SystemKind
	// At is the crash cycle.
	At sim.Time
	// Image is the recovered durable version of every line ever persisted
	// (absent = initial pre-run contents).
	Image map[mem.Line]mem.Version
	// Groups is the full atomic-group journal at the crash. Its groups may
	// be shared with the machine and with other captures, so they are
	// read-only: InjectFault copies a group before corrupting it.
	Groups []*core.Group
	// DurableOrder lists groups in the order they entered the durable
	// super group (AGB allocation order).
	DurableOrder []*core.Group
	// LineOrder is the directory-serialized store order per line.
	LineOrder map[mem.Line][]mem.Version
	// StoresIssued is the per-core count of stores that left each store
	// buffer before the crash.
	StoresIssued []uint64
	// Fault is the corruption injected into this state (FaultNone for a
	// genuine recovery); FaultApplied reports whether the state offered a
	// target for it.
	Fault        CrashFault
	FaultApplied bool
	// Stalled reports that the watchdog declared quiescence-without-progress
	// before the crash cycle; Stall carries the diagnostic. The recovered
	// image is still checkable — a wedged machine must not have corrupted
	// the durable state — but resilience campaigns fail the run.
	Stalled bool
	Stall   *StallError
	// FaultCounts is the runtime fault-injection ledger at the crash (zero
	// unless the run carried a fault plan).
	FaultCounts faultplan.Counts
}

// RunWithCrash executes the workload until the crash cycle (or natural
// completion, whichever is first) and returns the post-crash durable state.
// Only the strict-persistency systems (STW, TSOPER) produce a checkable
// group journal.
//
// The returned state aliases the machine's live bookkeeping — fine for
// this single-shot entry point, where the machine never advances again (an
// injected CrashFault copies what it corrupts). Incremental sweeps that keep
// simulating after a capture must use StartCrashRun / AdvanceTo /
// CaptureCrashState, whose captures the machine never changes.
func (m *Machine) RunWithCrash(w *trace.Workload, at sim.Time) *CrashState {
	m.StartCrashRun(w)
	m.AdvanceTo(at)
	return m.crashState(m.journal, m.durableOrder, m.lineOrder)
}

// StartCrashRun schedules the workload for an incremental crash sweep:
// follow with AdvanceTo for each crash cycle of interest (ascending) and
// CaptureCrashState after each. One machine serves a whole ascending chain
// of crash points — the prefix up to each point simulates once instead of
// once per point.
func (m *Machine) StartCrashRun(w *trace.Workload) {
	m.Start(w)
}

// AdvanceTo dispatches events up to and including cycle at. Calls must use
// nondecreasing cycles. Unlike Advance, no phase machinery runs: a crash
// sweep only ever observes the execution phase (the end-of-run flush would
// mask exactly the in-flight state crash campaigns probe).
func (m *Machine) AdvanceTo(at sim.Time) {
	m.engine.RunUntil(at)
}

// CaptureCrashState snapshots the post-crash durable state at the current
// cycle without disturbing the run, paying only for what can still change:
// the group journal goes through core.CloneGroups, which copies live groups
// and shares retired ones, and each append-only per-line order log is
// captured as its current prefix with capacity capped at its length, so
// neither the machine's later appends nor an append to the capture reach
// the other. The machine can keep advancing to later crash points. Captures
// share retired groups with it and with each other, so InjectFault copies
// a group before corrupting it.
func (m *Machine) CaptureCrashState() *CrashState {
	groups, durable := core.CloneGroups(m.journal, m.durableOrder)
	lineOrder := make(map[mem.Line][]mem.Version, len(m.lineOrder))
	for l, vs := range m.lineOrder {
		lineOrder[l] = vs[:len(vs):len(vs)]
	}
	return m.crashState(groups, durable, lineOrder)
}

// crashState builds the post-crash state at the current cycle over the
// given views of the group journal, durable order and per-line store order:
// it recovers the image and arms the configured CrashFault.
func (m *Machine) crashState(groups, durable []*core.Group, lineOrder map[mem.Line][]mem.Version) *CrashState {
	cs := &CrashState{
		System:       m.cfg.System,
		At:           m.engine.Now(),
		Image:        make(map[mem.Line]mem.Version),
		Groups:       groups,
		DurableOrder: durable,
		LineOrder:    lineOrder,
		Stalled:      m.stall != nil,
		Stall:        m.stall,
		FaultCounts:  m.FaultCounts(),
	}
	for _, c := range m.cores {
		cs.StoresIssued = append(cs.StoresIssued, c.storeSeq)
	}
	recoverImage(cs)
	if m.cfg.CrashFault != FaultNone {
		cs.Fault = m.cfg.CrashFault
		cs.FaultApplied = InjectFault(cs, m.cfg.CrashFault)
	}
	return cs
}

// DurableGroups counts the journal's groups that had reached the durable
// super group at the crash. A state is partially durable when this is
// neither zero nor len(Groups).
func (cs *CrashState) DurableGroups() int {
	n := 0
	for _, g := range cs.Groups {
		if g.State() >= core.Durable {
			n++
		}
	}
	return n
}

// recoverImage replays the durable groups in durability order. Applying
// every durable group (including retired ones, whose lines already reached
// NVM) reconstructs the newest durable version per line — same-address FIFO
// holds because durability order is allocation order. It runs before fault
// injection, so every group it reads is durable and DirtyView is safe.
func recoverImage(cs *CrashState) {
	for _, g := range cs.DurableOrder {
		for l, v := range g.DirtyView() {
			cs.Image[l] = v
		}
	}
}
