// Package machine wires the full simulated system of Table I: eight in-order
// cores with TSO FIFO store buffers, private caches running the SLC
// sharing-list protocol, a banked shared LLC with its directory, the atomic
// group buffer, a mesh NoC, and NVM ranks — and runs a workload under one of
// the persistency systems compared in §V (Baseline, HW-RP, BSP, BSP+SLC,
// BSP+SLC+AGB, STW, TSOPER).
package machine

import (
	"fmt"

	"repro/internal/agb"
	"repro/internal/cache"
	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SystemKind selects the persistency system under evaluation.
type SystemKind int

const (
	// Baseline is SLC coherence with no persistency support (§V "Systems" 1).
	Baseline SystemKind = iota
	// HWRP is the hypothetical hardware relaxed-persistency model (§V 2):
	// no order within synchronization-free regions, order across them.
	HWRP
	// BSP is Buffered Strict Persistency after Joshi et al. (§V 3):
	// hardware epochs persisting through the LLC with L1 and LLC exclusion.
	BSP
	// BSPSLC replaces BSP's coherence with SLC, removing L1 exclusion
	// (§V-B stepping stone).
	BSPSLC
	// BSPSLCAGB further persists epochs through an idealized unbounded AGB,
	// removing LLC exclusion (§V-B stepping stone).
	BSPSLCAGB
	// STW is the stop-the-world strict TSO persistency of §III.
	STW
	// TSOPER is the full proposal.
	TSOPER
)

func (k SystemKind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case HWRP:
		return "hw-rp"
	case BSP:
		return "bsp"
	case BSPSLC:
		return "bsp+slc"
	case BSPSLCAGB:
		return "bsp+slc+agb"
	case STW:
		return "stw"
	case TSOPER:
		return "tsoper"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// Systems lists every system in the order the figures present them.
func Systems() []SystemKind {
	return []SystemKind{Baseline, HWRP, BSP, BSPSLC, BSPSLCAGB, STW, TSOPER}
}

// CoherenceKind selects the coherence protocol backend: the timing
// discipline of write-permission acquisition (and, under tardis, of lease
// renewal). Persist ordering is answered by the sharing list under every
// backend. Version retention (multiversioning) is
// governed by the persistency system, not the backend, so every system
// runs under every backend — that is what makes the protocol bake-off
// (EXPERIMENTS.md) a like-for-like comparison.
type CoherenceKind int

const (
	// CoherenceSLC is the sharing-list protocol: invalidations walk the
	// list serially, one hop per valid copy (§IV).
	CoherenceSLC CoherenceKind = iota
	// CoherenceMESI models a conventional bit-vector directory: the
	// directory multicasts invalidations in parallel (one hop regardless
	// of sharer count). The paper uses it to quantify SLC's ~3% coherence
	// overhead (§V); under the strict systems it stands for strict
	// persistency over a conventional directory.
	CoherenceMESI
	// CoherenceTardis is the Tardis timestamp protocol (PAPERS.md): no
	// invalidation traffic at all — writes bump logical time past the
	// lease frontier, and reads hold leases that private hits must renew
	// once expired (internal/coherence/tardis).
	CoherenceTardis
)

func (k CoherenceKind) String() string {
	switch k {
	case CoherenceMESI:
		return "mesi"
	case CoherenceTardis:
		return "tardis"
	default:
		return "slc"
	}
}

// Coherences lists every coherence backend in bake-off order.
func Coherences() []CoherenceKind {
	return []CoherenceKind{CoherenceMESI, CoherenceSLC, CoherenceTardis}
}

// ParseCoherenceKind resolves a backend by name ("" and "slc" are the
// sharing-list default).
func ParseCoherenceKind(s string) (CoherenceKind, error) {
	switch s {
	case "", "slc":
		return CoherenceSLC, nil
	case "mesi":
		return CoherenceMESI, nil
	case "tardis":
		return CoherenceTardis, nil
	default:
		return CoherenceSLC, fmt.Errorf("machine: unknown coherence protocol %q (have mesi, slc, tardis)", s)
	}
}

// Config describes the simulated machine.
type Config struct {
	// System selects the persistency model.
	System SystemKind
	// Coherence selects the protocol backend (default SLC).
	Coherence CoherenceKind
	// TardisLease is the logical read-lease length under CoherenceTardis
	// (0 picks tardis.DefaultLease); ignored by the other backends.
	TardisLease uint64
	// Scheduler selects the engine's event-queue implementation (default
	// the timing wheel; the heap is the differential-testing reference).
	Scheduler sim.SchedulerKind

	// Cores is the number of cores/private caches (Table I: 8).
	Cores int
	// StoreBufferEntries is the TSO store buffer depth per core.
	StoreBufferEntries int

	// PrivGeom sizes each private cache (Table I: 512 KB 16-way L2; the L1
	// is folded into the private hit latency).
	PrivGeom cache.Geometry
	// LLCGeom sizes the shared LLC (Table I: 16 MB, 16-way, 8 banks).
	LLCGeom  cache.Geometry
	LLCBanks int

	// PrivHit is the private cache hit latency; LLCLatency the LLC/
	// directory bank access latency; BankOccupancy the per-access bank
	// busy time; SyncLatency the cost of a synchronization operation.
	PrivHit       sim.Time
	LLCLatency    sim.Time
	BankOccupancy sim.Time
	SyncLatency   sim.Time

	// AGLimit caps atomic-group size in cachelines (§V: 80 for STW/TSOPER).
	AGLimit int
	// EvictBufEntries sizes the per-cache eviction buffer (§III-B: 16).
	EvictBufEntries int

	// BSPEpochStores is BSP's hardware epoch length (§V-B: 10,000 stores).
	BSPEpochStores int
	// WPQDepth bounds HW-RP's outstanding persists per core before a sync
	// must stall (double-buffered SFR batches).
	WPQDepth int

	// PersistFilter, when non-nil, restricts persistency to the lines it
	// accepts — the WHISPER-style hybrid sketched in §V's baseline
	// discussion: the sharing-list persistency machinery applies only to
	// persistent addresses, everything else behaves like a conventional
	// protocol. nil persists everything (the paper's evaluated mode).
	PersistFilter func(l mem.Line) bool

	// Telemetry, when non-nil and carrying a sink, receives the machine's
	// full instrumentation stream: atomic-group lifecycle spans per core,
	// coherence/persistency instants, AGB and eviction-buffer occupancy
	// counters, NVM queue depths, and NoC message spans. Track handles are
	// machine-local, so give each machine a freshly constructed bus.
	Telemetry *telemetry.Bus

	// Probe, when non-nil, observes every persistency transition (group
	// freeze, AGB ingress/egress, persist-token hand-off, eviction-buffer
	// drain). Crash campaigns harvest the event cycles as targeted crash
	// points. The machine calls it directly, stamped with the current
	// cycle; it needs no telemetry bus and switches none on.
	Probe func(Event)

	// CrashFault, when not FaultNone, deliberately corrupts the recovered
	// state RunWithCrash returns — checker mutation testing only.
	CrashFault CrashFault

	// Faults, when non-nil and non-empty, compiles into a runtime
	// fault-injection plan: scheduled NVM rank failures and latency spikes,
	// NoC drops/duplicates/delays, and AGB slice stalls and outages, all
	// recovered by the components' resilience machinery (retry/backoff,
	// ack/retransmit, arbiter rerouting). With Faults nil the hot paths pay
	// one nil check and allocate nothing.
	Faults *faultplan.Spec
	// WatchdogHorizon arms the stall watchdog: a run that makes no event
	// progress across a whole horizon while work is outstanding fails with a
	// StallError instead of wedging. 0 picks DefaultWatchdogHorizon when
	// Faults is set and leaves the watchdog off otherwise.
	WatchdogHorizon sim.Time

	NoC noc.Config
	NVM nvm.Config
	AGB agb.Config
}

// DefaultWatchdogHorizon is the progress window armed for fault-plan runs
// when WatchdogHorizon is 0. Bounded retry/backoff chains span at most a few
// thousand cycles, so a horizon this wide never trips on legitimate
// recovery.
const DefaultWatchdogHorizon sim.Time = 200_000

// TableI returns the paper's evaluated configuration for the given system.
func TableI(system SystemKind) Config {
	cfg := Config{
		System:             system,
		Cores:              8,
		StoreBufferEntries: 56,
		// The cache geometry is Table I's, scaled down with the synthetic
		// traces (which are orders of magnitude shorter than the paper's
		// regions of interest) so that capacity behavior — evictions,
		// writebacks, eviction-buffer pressure — is exercised at the same
		// working-set-to-cache ratio the real workloads see.
		PrivGeom:        cache.Geometry{SizeBytes: 64 * 1024, Ways: 16},
		LLCGeom:         cache.Geometry{SizeBytes: 2 * 1024 * 1024, Ways: 16},
		LLCBanks:        8,
		PrivHit:         4,
		LLCLatency:      20,
		BankOccupancy:   4,
		SyncLatency:     30,
		AGLimit:         80,
		EvictBufEntries: 16,
		BSPEpochStores:  10000,
		WPQDepth:        64,
		NoC:             noc.DefaultConfig(),
		NVM:             nvm.DefaultConfig(),
		AGB:             agb.DefaultConfig(),
	}
	if system == BSPSLCAGB {
		// §V-B: an idealized unbounded AGB able to fit BSP's huge epochs.
		cfg.AGB.LinesPerSlice = 1 << 20
	}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: cores must be positive")
	}
	if c.StoreBufferEntries <= 0 {
		return fmt.Errorf("machine: store buffer must be positive")
	}
	if c.AGLimit <= 0 {
		return fmt.Errorf("machine: AG limit must be positive")
	}
	if c.AGLimit > c.AGB.LinesPerSlice {
		return fmt.Errorf("machine: AG limit %d exceeds AGB slice capacity %d (atomicity unguaranteeable)",
			c.AGLimit, c.AGB.LinesPerSlice)
	}
	if c.LLCBanks <= 0 {
		return fmt.Errorf("machine: LLC banks must be positive")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("machine: fault plan: %w", err)
		}
	}
	switch c.Coherence {
	case CoherenceSLC, CoherenceMESI, CoherenceTardis:
		// Every persistency system runs under every backend: version
		// retention is the system's job (destructive()), the backend only
		// supplies timing.
	default:
		return fmt.Errorf("machine: unknown coherence backend %v", c.Coherence)
	}
	return nil
}
