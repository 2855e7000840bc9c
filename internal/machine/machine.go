package machine

import (
	"fmt"

	"repro/internal/agb"
	"repro/internal/cache"
	"repro/internal/coherence/slc"
	"repro/internal/coherence/tardis"
	"repro/internal/core"
	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Machine is one simulated CMP instance. It is single-use: construct, Run,
// then read Results.
type Machine struct {
	cfg    Config
	engine *sim.Engine
	set    *stats.Set
	net    *noc.Network
	memory *nvm.Memory
	buffer *agb.Buffer
	dir    *slc.Directory
	llc    *cache.Cache[mem.Version]
	banks  *sim.Bank

	cores []*coreUnit
	priv  []*privCache
	sys   system

	// tardis is the timestamp-coherence state, non-nil only under
	// CoherenceTardis (backend.go).
	tardis *tardis.State

	// waiters are continuations blocked on "cache c's copy of line l is no
	// longer pending" (removed from the list or persisted in place).
	waiters map[waitKey][]func()
	// evbufWaiters are fills blocked on a full eviction buffer, per cache.
	evbufWaiters [][]func()

	// vnScratch is the invalidation walk's reusable valid-node snapshot
	// (only writeTxn.dir iterates it, and directory stages never nest).
	vnScratch []*slc.Node

	coherenceWrites *stats.Counter
	persistWrites   *stats.Counter
	loads, stores   *stats.Counter
	syncs           *stats.Counter
	invalWalks      *stats.Dist

	// lineOrder records the coherence (directory) serialization of store
	// versions per line, consumed by the crash-consistency checker; a log's
	// last entry is the line's newest coherent version (what a reader
	// observes). verSlab backs the logs' initial capacity (recordStore).
	lineOrder map[mem.Line][]mem.Version
	verSlab   []mem.Version

	journal      []*core.Group
	durableOrder []*core.Group
	timeline     *stats.Series

	// tel is nil unless a telemetry sink (bus or probe) is attached.
	tel *machineTel

	// plan is nil unless Config.Faults compiled a fault-injection plan;
	// wd is nil unless a watchdog horizon is armed (faults.go).
	plan *faultplan.Plan
	wd   *sim.Watchdog
	// stall records the watchdog's verdict; drainPending marks the
	// end-of-run flush as outstanding work for the watchdog.
	stall        *StallError
	drainPending bool

	running   int
	phase     runPhase
	flushed   bool
	workload  *trace.Workload
	execDone  sim.Time
	drainDone sim.Time

	// Traffic snapshots taken when execution (not the end-of-run flush)
	// completes: Fig. 14 reports steady-state traffic, and the final drain
	// is a simulation artifact that would inflate the buffered systems.
	execCoherenceWrites uint64
	execPersistWrites   uint64
	execNVMWrites       uint64
}

type waitKey struct {
	cache int
	line  mem.Line
}

// privCache is one core's private cache plus its eviction buffer (§III-B).
type privCache struct {
	id    int
	arr   *cache.Cache[*slc.Node]
	evbuf *cache.EvictBuffer[*slc.Node]
}

// New constructs a machine for the configuration. It allocates no per-line
// state: Start sizes that from the workload.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		engine:   sim.NewEngineWithScheduler(cfg.Scheduler),
		set:      stats.NewSet(),
		waiters:  make(map[waitKey][]func()),
		timeline: &stats.Series{Name: "region_size"},
	}
	m.initTelemetry()
	m.net = noc.New(m.engine, cfg.NoC, m.set)
	m.memory = nvm.New(m.engine, cfg.NVM, m.set)
	m.buffer = agb.New(m.engine, m.memory, cfg.AGB, m.set)
	m.dir = slc.NewDirectory(m.set)
	m.llc = cache.New[mem.Version](cfg.LLCGeom)
	m.banks = sim.NewBank(cfg.LLCBanks)
	m.coherenceWrites = m.set.Counter("traffic.coherence_writes")
	m.persistWrites = m.set.Counter("traffic.persist_writes")
	m.loads = m.set.Counter("ops.loads")
	m.stores = m.set.Counter("ops.stores")
	m.syncs = m.set.Counter("ops.syncs")
	m.invalWalks = m.set.Dist("slc.invalidation_walk")

	for i := 0; i < cfg.Cores; i++ {
		m.priv = append(m.priv, &privCache{
			id:    i,
			arr:   cache.New[*slc.Node](cfg.PrivGeom),
			evbuf: cache.NewEvictBuffer[*slc.Node](cfg.EvictBufEntries),
		})
	}
	m.evbufWaiters = make([][]func(), cfg.Cores)
	if cfg.Coherence == CoherenceTardis {
		m.tardis = tardis.New(cfg.Cores, m.set)
	}
	m.instrumentComponents()
	m.initFaults()
	m.sys = newSystem(m)
	return m, nil
}

// Run executes the workload to completion, flushes trailing persists, and
// returns the results. It panics if the workload has a different core count
// than the machine, and on a wedged run (deadlock or watchdog stall) — use
// RunChecked to get the stall as an error instead.
func (m *Machine) Run(w *trace.Workload) *Results {
	r, err := m.RunChecked(w)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// runPhase tracks where a stepped run stands. It advances strictly
// idle → exec → drain → done; a checkpoint records it so a restore knows
// which phase to resume.
type runPhase uint8

const (
	phaseIdle runPhase = iota
	phaseExec
	phaseDrain
	phaseDone
)

func (p runPhase) String() string {
	switch p {
	case phaseIdle:
		return "idle"
	case phaseExec:
		return "exec"
	case phaseDrain:
		return "drain"
	case phaseDone:
		return "done"
	}
	return "unknown"
}

// Phase reports the run phase as a string ("idle", "exec", "drain", "done").
func (m *Machine) Phase() string { return m.phase.String() }

// Now reports the current simulation cycle.
func (m *Machine) Now() sim.Time { return m.engine.Now() }

// RunChecked is Run returning wedged-run failures as errors: a *StallError
// when the watchdog declares quiescence-without-progress, a plain error on
// deadlock or an incomplete final drain.
func (m *Machine) RunChecked(w *trace.Workload) (*Results, error) {
	m.Start(w)
	if _, err := m.Advance(sim.MaxTime); err != nil {
		return nil, err
	}
	return m.results(w), nil
}

// Start schedules the workload onto the cores and arms the watchdog,
// leaving the machine in the execution phase. Drive it with Advance; a
// full run to completion is Start + Advance(sim.MaxTime) (what RunChecked
// does), a stepped run calls Advance with increasing limits and may
// Checkpoint between calls.
func (m *Machine) Start(w *trace.Workload) {
	if len(w.Cores) != m.cfg.Cores {
		panic(fmt.Sprintf("machine: workload has %d cores, machine %d", len(w.Cores), m.cfg.Cores))
	}
	if m.phase != phaseIdle {
		panic("machine: Start called twice")
	}
	m.workload = w
	ops := 0
	for _, c := range w.Cores {
		ops += len(c)
	}
	m.reserve(ops)
	for i, ops := range w.Cores {
		c := newCoreUnit(m, i, ops)
		m.cores = append(m.cores, c)
		m.running++
		m.engine.Schedule(0, c.stepFn)
	}
	m.armWatchdog()
	m.phase = phaseExec
}

// Per-line state caps: the presize of the per-line maps, how many lines'
// version logs one verSlab chunk holds, and each log's initial capacity.
const (
	lineHintCap = 1 << 11
	verChunk    = 256
	verLogCap   = 16
)

// reserve builds the per-line state for a workload of n ops, which touches
// at most n distinct lines: every per-line map and first slab chunk is
// sized min(its cap, n). A workload of 2,048 ops or more gets the caps, and
// a litmus test's few ops get a few KB.
func (m *Machine) reserve(n int) {
	m.lineOrder = make(map[mem.Line][]mem.Version, min(lineHintCap, n))
	m.verSlab = make([]mem.Version, min(verChunk, n)*verLogCap)
	m.llc.Reserve(n)
	for _, pc := range m.priv {
		pc.arr.Reserve(n)
	}
	m.dir.Reserve(n)
	if m.tardis != nil {
		m.tardis.Reserve(n)
	}
}

// Advance dispatches events with time <= limit, moving through the run's
// phases as each completes. It returns done=true once the final drain has
// finished and the run's invariants checked out; done=false with a nil
// error means events beyond the limit remain — call Advance again with a
// larger limit (checkpointing in between, if desired). Errors are the same
// wedged-run failures RunChecked reports and are sticky: the machine is
// not usable after one.
func (m *Machine) Advance(limit sim.Time) (bool, error) {
	for {
		switch m.phase {
		case phaseIdle:
			return false, fmt.Errorf("machine: Advance before Start")

		case phaseExec:
			m.engine.RunUntil(limit)
			if m.stall != nil {
				return false, m.stall
			}
			if m.engine.Pending() > 0 {
				return false, nil
			}
			if m.running != 0 {
				return false, fmt.Errorf("machine: deadlock — %d cores stuck at cycle %d (%s)",
					m.running, m.engine.Now(), m.cfg.System)
			}
			m.execDone = m.engine.Now()
			m.execCoherenceWrites = m.coherenceWrites.Value
			m.execPersistWrites = m.persistWrites.Value
			m.execNVMWrites = m.memory.Writes()

			// End-of-run flush: expose everything so the durable image
			// completes.
			m.flushed = false
			m.drainPending = true
			m.sys.drain(func() {
				m.flushed = true
				m.drainPending = false
				// The flush is done: cancel the artificial queue-keepers
				// (watchdog check, remaining fault-outage toggles) so the
				// queue empties at the last real event and DrainCycles keeps
				// its plan-free meaning.
				m.disarmWatchdog()
				m.buffer.CancelOutages()
			})
			m.armWatchdog()
			m.phase = phaseDrain

		case phaseDrain:
			m.engine.RunUntil(limit)
			if m.stall != nil {
				return false, m.stall
			}
			if m.engine.Pending() > 0 {
				return false, nil
			}
			if !m.flushed {
				return false, fmt.Errorf("machine: final drain never completed (cycle %d, %s)",
					m.engine.Now(), m.cfg.System)
			}
			m.drainDone = m.engine.Now()
			if m.plan != nil {
				// A run that quiesced cleanly can still have dropped persists
				// on the floor (the plan's test-only abandonment mode): the
				// durable image is silently incomplete, which must never read
				// as success.
				if lost := m.plan.Counts().Lost(); lost > 0 {
					return false, fmt.Errorf("machine: %d persists permanently lost (%s)", lost, m.cfg.System)
				}
			}
			m.phase = phaseDone
			return true, nil

		default: // phaseDone
			return true, nil
		}
	}
}

// Results materializes the results for the workload the machine ran. Valid
// only after Advance returned done=true; RunChecked calls it for you.
func (m *Machine) Results() *Results {
	if m.phase != phaseDone {
		panic("machine: Results before the run completed")
	}
	return m.results(m.workload)
}

func (m *Machine) results(w *trace.Workload) *Results {
	coh, per := m.dir.Lengths()
	r := &Results{
		System:             m.cfg.System,
		Benchmark:          w.Profile.Name,
		Cycles:             m.execDone,
		DrainCycles:        m.drainDone,
		CoherenceWrites:    m.execCoherenceWrites,
		PersistWrites:      m.execPersistWrites,
		NVMWrites:          m.execNVMWrites,
		TotalPersistWrites: m.persistWrites.Value,
		Stores:             m.stores.Value,
		Loads:              m.loads.Value,
		SyncOps:            m.syncs.Value,
		Groups:             m.journal,
		AGSizes:            m.set.Dist("ag.size"),
		SFRStores:          m.set.Dist("sfr.stores"),
		SizeTimeline:       m.timeline,
		CoherenceListLen:   coh,
		PersistListLen:     per,
		AGBStalls:          m.buffer.Stalls(),
		Durable:            m.memory.DurableImage(),
		LineOrder:          m.lineOrder,
		Set:                m.set,
		Resources:          m.collectResources(m.drainDone),
	}
	for _, pc := range m.priv {
		if pc.evbuf.MaxOccupancy > r.EvictBufMax {
			r.EvictBufMax = pc.evbuf.MaxOccupancy
		}
		r.EvictBufStalls += pc.evbuf.Stalls
	}
	if m.plan != nil {
		c := m.plan.Counts()
		r.Faults = &c
	}
	return r
}

func (m *Machine) coreDone(*coreUnit) {
	m.running--
	if m.running == 0 {
		// Cancel the pending watchdog check so its far-future event does not
		// advance the clock past the last real event of the execution phase.
		m.disarmWatchdog()
	}
}

// ---- topology helpers ----

// coreNode maps core i to its mesh node; bankNode maps LLC bank b to its
// node on the other half of the mesh.
func (m *Machine) coreNode(c int) int { return c % m.net.Nodes() }

func (m *Machine) bankNode(b int) int {
	n := m.net.Nodes()
	return (n/2 + b) % n
}

func (m *Machine) bankOf(l mem.Line) int { return int(uint64(l) % uint64(m.cfg.LLCBanks)) }

// ---- waiter infrastructure ----

// waitLineFree parks a continuation until cache's copy of line stops being
// pending (its node is unlinked or persists in place).
func (m *Machine) waitLineFree(cacheID int, line mem.Line, fn func()) {
	k := waitKey{cacheID, line}
	m.waiters[k] = append(m.waiters[k], fn)
}

// releaseLine wakes the waiters for (cache, line).
func (m *Machine) releaseLine(cacheID int, line mem.Line) {
	k := waitKey{cacheID, line}
	ws := m.waiters[k]
	if len(ws) == 0 {
		return
	}
	delete(m.waiters, k)
	for _, fn := range ws {
		fn := fn
		m.engine.Schedule(0, fn)
	}
}

// applyUpdate processes sharing-list side effects: removed nodes free their
// cache frames and wake waiters; newly clear nodes notify the system (AG
// waiting-to-become-tail accounting).
func (m *Machine) applyUpdate(up slc.Update) {
	for _, n := range up.Removed {
		m.dropFrame(n)
		m.releaseLine(n.Cache, n.Line)
		// A removed node is trivially clear for its cache's groups.
		m.sys.nodeCleared(n)
	}
	for _, n := range up.NewlyClear {
		m.sys.nodeCleared(n)
	}
}

// dropFrame releases the private-cache frame or eviction-buffer slot that
// held node n.
func (m *Machine) dropFrame(n *slc.Node) {
	pc := m.priv[n.Cache]
	if e := pc.arr.Peek(n.Line); e != nil && e.Data == n {
		pc.arr.Remove(n.Line)
		return
	}
	if got, ok := pc.evbuf.Get(n.Line); ok && got == n {
		pc.evbuf.Release(n.Line)
		m.evbufReleased(n.Cache)
	}
}
