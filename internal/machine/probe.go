package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EventKind classifies the persistency-machinery events a Probe observes.
// They are exactly the transitions whose surrounding cycles are the
// interesting crash points: a crash an instant before or after any of them
// exercises a different durability frontier.
type EventKind uint8

const (
	// EvFreeze: an atomic group froze (first exposure, §II-A).
	EvFreeze EventKind = iota
	// EvDrainStart: a group began buffering into the AGB (ingress).
	EvDrainStart
	// EvLineBuffered: one line entered the persistent domain and its
	// sharing-list node passed the persist token (left the list, §IV-B).
	EvLineBuffered
	// EvDurable: a group joined the AGB's durable super group.
	EvDurable
	// EvRetired: a group's NVM writes completed and its AGB space was
	// reclaimed (egress).
	EvRetired
	// EvEvictDrain: an eviction-buffer slot was released (a persisted
	// evicted line finally left the persistence domain's staging).
	EvEvictDrain
)

func (k EventKind) String() string {
	switch k {
	case EvFreeze:
		return "freeze"
	case EvDrainStart:
		return "drain-start"
	case EvLineBuffered:
		return "line-buffered"
	case EvDurable:
		return "durable"
	case EvRetired:
		return "retired"
	case EvEvictDrain:
		return "evict-drain"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one observed persistency transition.
type Event struct {
	Kind EventKind
	// At is the simulation cycle of the transition.
	At sim.Time
	// Core is the owning core / private cache.
	Core int
	// Group is the atomic group ID (0 when not group-related).
	Group uint64
	// Line is the affected cacheline (EvLineBuffered only).
	Line mem.Line
	// Reason is the freeze trigger (EvFreeze only).
	Reason core.FreezeReason
}

func (e Event) String() string {
	return fmt.Sprintf("@%d %s core=%d ag=%d", e.At, e.Kind, e.Core, e.Group)
}

// emit reports a persistency transition, stamped with the current cycle:
// the configured Probe (if any) receives it directly, and an attached bus
// gets it as an instant on the owning core's track. With neither it costs
// two branches and no allocation.
func (m *Machine) emit(e Event) {
	e.At = m.engine.Now()
	if m.cfg.Probe != nil {
		m.cfg.Probe(e)
	}
	if m.tel == nil {
		return
	}
	var aux uint64
	switch e.Kind {
	case EvLineBuffered:
		aux = uint64(e.Line)
	case EvFreeze:
		aux = uint64(e.Reason)
	}
	m.tel.bus.Instant(m.tel.coreTrack[e.Core], e.Kind.String(),
		telemetry.Ticks(e.At), e.Group, aux)
}
