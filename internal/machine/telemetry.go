package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file wires the machine onto the telemetry bus (internal/telemetry).
//
// The machine owns the per-core timeline: atomic-group lifecycle spans
// (open -> frozen -> draining -> durable, closed at retirement), the
// persistency-transition instants emit publishes, and per-core
// eviction-buffer occupancy counters. Sub-components (AGB, NVM, NoC, SLC
// directory) register their own tracks through the same bus in New.
//
// Config.Probe does not go through the bus: emit calls it directly, so a
// crash campaign's probe-only configuration leaves telemetry switched off.

// machineTel is the machine's own track state on the bus.
type machineTel struct {
	bus       *telemetry.Bus
	coreTrack []telemetry.Track
	evbufName []string
}

// initTelemetry attaches the configured bus. Each machine needs a freshly
// constructed bus (handles are machine-local); Config.Validate enforces
// nothing here because a shared bus still works — it just interleaves two
// machines' tracks.
func (m *Machine) initTelemetry() {
	bus := m.cfg.Telemetry
	if !bus.Enabled() {
		// No sink: leave m.tel nil so every emission site reduces to one
		// branch (the overhead-guard benchmark pins this down).
		return
	}
	t := &machineTel{bus: bus}
	for i := 0; i < m.cfg.Cores; i++ {
		t.coreTrack = append(t.coreTrack, bus.Track("cores", fmt.Sprintf("core %d", i)))
		t.evbufName = append(t.evbufName, fmt.Sprintf("core%d.evictbuf", i))
	}
	m.tel = t
}

// instrumentComponents attaches the bus to every sub-component; called
// after construction, before the workload starts.
func (m *Machine) instrumentComponents() {
	if m.tel == nil {
		return
	}
	bus := m.tel.bus
	m.net.Instrument(bus)
	m.memory.Instrument(bus)
	m.buffer.Instrument(bus)
	m.dir.Instrument(bus, func() telemetry.Ticks { return telemetry.Ticks(m.engine.Now()) })
}

// now returns the current cycle as bus time.
func (t *machineTel) nowTicks(m *Machine) telemetry.Ticks {
	return telemetry.Ticks(m.engine.Now())
}

// agPhase are the lifecycle span names; each phase is an async span scoped
// by the group ID so overlapping groups on one core render separately.
const (
	agPhaseOpen     = "ag:open"
	agPhaseFrozen   = "ag:frozen"
	agPhaseDraining = "ag:draining"
	agPhaseDurable  = "ag:durable"
)

// agBegin opens a lifecycle phase span for group g on its core's track.
func (m *Machine) agBegin(g *core.Group, phase string) {
	if m.tel == nil {
		return
	}
	m.tel.bus.Begin(m.tel.coreTrack[g.Core], phase, m.tel.nowTicks(m), g.ID)
}

// agEnd closes a lifecycle phase span.
func (m *Machine) agEnd(g *core.Group, phase string) {
	if m.tel == nil {
		return
	}
	m.tel.bus.End(m.tel.coreTrack[g.Core], phase, m.tel.nowTicks(m), g.ID)
}

// evbufSample refreshes core's eviction-buffer occupancy counter track.
func (m *Machine) evbufSample(cacheID int) {
	if m.tel == nil {
		return
	}
	m.tel.bus.Count(m.tel.coreTrack[cacheID], m.tel.evbufName[cacheID],
		m.tel.nowTicks(m), int64(m.priv[cacheID].evbuf.Len()))
}

// collectResources snapshots every contended resource in the machine for
// the unified metrics document, evaluated at the end-of-run horizon.
func (m *Machine) collectResources(now sim.Time) map[string]telemetry.ResourceSnapshot {
	out := make(map[string]telemetry.ResourceSnapshot)
	telemetry.SnapshotBank(out, "llc.bank", m.banks, now)
	telemetry.SnapshotBank(out, "noc.node", m.net.Ports(), now)
	telemetry.SnapshotBank(out, "nvm.rank", m.memory.RankPorts(), now)
	telemetry.SnapshotBank(out, "agb.slice", m.buffer.Ports(), now)
	return out
}
