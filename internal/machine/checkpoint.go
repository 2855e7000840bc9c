package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/coherence/slc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Checkpointing is replay-verified: pending events are closures and cannot
// be serialized structurally, so a checkpoint records the machine's
// *logical* state (every component's observable bookkeeping plus the
// engine's (at, seq, gen) schedule) and Restore rebuilds a fresh machine
// from the same config + workload, replays it deterministically to the
// checkpoint cycle, re-serializes, and byte-compares against the blob. The
// replay is the restore; the byte-compare is the proof it landed in the
// same state.
//
// Format invariants (version bumps when any changes):
//   - every map is emitted in sorted key order; slices in index order;
//     stats in registration order, distribution samples in insertion order;
//   - allocation pools (engine event free list, txn records, line-version
//     and list-node slabs) are excluded — they are reuse machinery, not
//     logical state. In-flight pooled records are pinned by the pending
//     continuations captured as engine (at, seq, gen) triples;
//   - scratch buffers (vnScratch) and pure observers (telemetry) are
//     excluded;
//   - the config participates via its canonical hash and the workload via
//     its serialized digest; both are checked before any replay, and the
//     state byte-compare then proves the replay landed in the same state.

// Checkpoint serializes the machine's complete logical state at the
// current cycle. Call it only between Start/Advance calls (never from
// inside a simulated event) — the engine must be at an event boundary.
// It fails on a config with no canonical form (PersistFilter) and on a
// machine that has not Started.
func (m *Machine) Checkpoint() ([]byte, error) {
	if m.phase == phaseIdle {
		return nil, fmt.Errorf("machine: checkpoint before Start")
	}
	hash, err := m.cfg.CanonicalHash()
	if err != nil {
		return nil, fmt.Errorf("machine: checkpoint: %v", err)
	}
	h := ckpt.Header{
		Version:        ckpt.Version,
		ConfigHash:     hash,
		Scheduler:      uint8(m.engine.Scheduler()),
		Phase:          uint8(m.phase),
		Cycle:          uint64(m.engine.Now()),
		Seq:            m.engine.Seq(),
		Executed:       m.engine.Executed,
		WorkloadDigest: workloadDigest(m.workload),
	}
	return ckpt.EncodeBlob(h, m.encodeState()), nil
}

// Restore rebuilds a machine in the checkpointed state: it validates the
// blob envelope (ckpt.ErrFormat / ckpt.ErrVersion), requires cfg's
// canonical hash to match the checkpoint's (ckpt.ErrConfigMismatch) and w
// to be the checkpointed workload (ckpt.ErrDivergence naming the workload,
// caught from the header's digest before any replay), replays a fresh
// machine over w to the checkpoint cycle, and byte-compares the replayed
// state against the blob (ckpt.ErrDivergence names the first differing
// section). On success the machine is indistinguishable from the one that
// produced the checkpoint — continue it with Advance.
func Restore(cfg Config, w *trace.Workload, blob []byte) (*Machine, error) {
	h, state, err := ckpt.DecodeBlob(blob)
	if err != nil {
		return nil, err
	}
	hash, err := cfg.CanonicalHash()
	if err != nil {
		return nil, fmt.Errorf("machine: restore: %v", err)
	}
	if hash != h.ConfigHash {
		return nil, fmt.Errorf("%w: machine %s.., checkpoint %s..",
			ckpt.ErrConfigMismatch, prefix12(hash), prefix12(h.ConfigHash))
	}
	if h.Phase < uint8(phaseExec) || h.Phase > uint8(phaseDone) {
		return nil, fmt.Errorf("%w: phase byte %d out of range", ckpt.ErrFormat, h.Phase)
	}
	if d := workloadDigest(w); d != h.WorkloadDigest {
		return nil, fmt.Errorf("%w: workload %q digest %s.., checkpoint %s..",
			ckpt.ErrDivergence, w.Profile.Name, prefix12(d), prefix12(h.WorkloadDigest))
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m.Start(w)
	if _, err := m.Advance(sim.Time(h.Cycle)); err != nil {
		return nil, fmt.Errorf("machine: restore replay failed: %w", err)
	}
	if err := ckpt.CompareState(state, m.encodeState()); err != nil {
		return nil, err
	}
	return m, nil
}

// prefix12 truncates a hash for error messages; a corrupted blob may carry
// an arbitrarily short string.
func prefix12(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// workloadDigest content-addresses a workload via its serialized form.
func workloadDigest(w *trace.Workload) string {
	if w == nil {
		return ""
	}
	h := sha256.New()
	if err := w.Save(h); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeState serializes every component's logical state as named
// sections. The section order and contents are the format; see the
// invariants at the top of this file.
func (m *Machine) encodeState() []byte {
	w := &ckpt.Writer{}

	m.engine.EncodeState(w)

	w.Section("cores")
	w.U32(uint32(len(m.cores)))
	for _, c := range m.cores {
		w.Int(c.pc)
		w.Bool(c.done)
		w.Bool(c.draining)
		w.Bool(c.sbWait)
		w.Bool(c.syncWait)
		w.U64(c.storeSeq)
		w.U32(uint32(len(c.sb)))
		for _, st := range c.sb {
			w.U64(uint64(st.line))
			w.Int(st.ver.Core)
			w.U64(st.ver.Seq)
			w.Bool(st.marker)
		}
	}

	w.Section("priv")
	for _, pc := range m.priv {
		pc.arr.EncodeState(w, encodeNodeRef)
		pc.evbuf.EncodeState(w, encodeNodeRef)
	}

	w.Section("llc")
	m.llc.EncodeState(w, func(w *ckpt.Writer, v mem.Version) {
		w.Int(v.Core)
		w.U64(v.Seq)
	})
	m.banks.EncodeState(w)

	w.Section("dir")
	m.dir.EncodeState(w)

	// Timestamp-coherence state exists only under the tardis backend; gating
	// the section keeps slc/mesi blobs free of it. The name differs from the
	// older "tardis" section, which also carried a pending-write ledger, so
	// such a blob fails Restore with ErrDivergence naming the section.
	if m.tardis != nil {
		w.Section("tardis.ts")
		m.tardis.EncodeState(w)
	}

	w.Section("machine")
	lines := make([]uint64, 0, len(m.lineOrder))
	for l := range m.lineOrder {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		vs := m.lineOrder[mem.Line(l)]
		w.U64(l)
		w.U32(uint32(len(vs)))
		for _, v := range vs {
			w.Int(v.Core)
			w.U64(v.Seq)
		}
	}
	keys := make([]waitKey, 0, len(m.waiters))
	for k := range m.waiters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cache != keys[j].cache {
			return keys[i].cache < keys[j].cache
		}
		return keys[i].line < keys[j].line
	})
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(k.cache)
		w.U64(uint64(k.line))
		w.U32(uint32(len(m.waiters[k])))
	}
	w.U32(uint32(len(m.evbufWaiters)))
	for _, ws := range m.evbufWaiters {
		w.U32(uint32(len(ws)))
	}
	w.Int(m.running)
	w.U8(uint8(m.phase))
	w.Bool(m.drainPending)
	w.Bool(m.flushed)
	w.Bool(m.stall != nil)
	w.U64(uint64(m.execDone))
	w.U64(uint64(m.drainDone))
	w.U64(m.execCoherenceWrites)
	w.U64(m.execPersistWrites)
	w.U64(m.execNVMWrites)

	w.Section("journal")
	w.U32(uint32(len(m.journal)))
	for _, g := range m.journal {
		g.EncodeState(w)
	}
	w.U32(uint32(len(m.durableOrder)))
	for _, g := range m.durableOrder {
		w.U64(g.ID)
	}

	w.Section("sys")
	m.encodeSystemState(w)

	w.Section("nvm")
	m.memory.EncodeState(w)

	w.Section("agb")
	m.buffer.EncodeState(w)

	w.Section("noc")
	m.net.EncodeState(w)

	w.Section("faults")
	if m.plan != nil {
		w.Bool(true)
		m.plan.EncodeState(w)
	} else {
		w.Bool(false)
	}
	if m.wd != nil {
		w.Bool(true)
		m.wd.EncodeState(w)
	} else {
		w.Bool(false)
	}

	w.Section("stats")
	m.set.EncodeState(w)
	m.timeline.EncodeState(w)

	return w.State()
}

// encodeNodeRef encodes a sharing-list node held by a private cache frame
// or eviction-buffer slot. The node's full state also appears in the
// directory section; repeating it here ties the frame to the specific
// version it holds.
func encodeNodeRef(w *ckpt.Writer, n *slc.Node) {
	if n == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U64(uint64(n.Line))
	w.Int(n.Cache)
	w.Bool(n.Valid)
	w.Bool(n.Dirty)
	w.Int(n.Version.Core)
	w.U64(n.Version.Seq)
	w.U64(n.AGID)
}

func encodeVersionMap(w *ckpt.Writer, m map[mem.Line]mem.Version) {
	lines := make([]uint64, 0, len(m))
	for l := range m {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		v := m[mem.Line(l)]
		w.U64(l)
		w.Int(v.Core)
		w.U64(v.Seq)
	}
}

func encodeTimeMap(w *ckpt.Writer, m map[mem.Line]sim.Time) {
	lines := make([]uint64, 0, len(m))
	for l := range m {
		lines = append(lines, uint64(l))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, l := range lines {
		w.U64(l)
		w.U64(uint64(m[mem.Line(l)]))
	}
}

// encodeSystemState dispatches on the persistency model. Each encoder
// writes a distinguishing tag first so a cross-system comparison fails on
// the tag, not mid-stream.
func (m *Machine) encodeSystemState(w *ckpt.Writer) {
	switch s := m.sys.(type) {
	case *tsoperSys:
		w.U8(1)
		w.Bool(s.stw)
		w.Int(s.liveCount)
		w.Bool(s.drainDone != nil)
		w.Int(s.stallRefs)
		w.U32(uint32(len(s.stallWaiters)))
		w.U32(uint32(len(s.trackers)))
		for _, tr := range s.trackers {
			tr.EncodeState(w)
		}
		if len(s.trackers) > 0 {
			w.U64(s.trackers[0].Source().Next())
		}

	case *bspSys:
		w.U8(2)
		w.Bool(s.slcMode)
		w.Bool(s.agbMode)
		w.Int(s.liveFlushes)
		w.Bool(s.drainDone != nil)
		w.U32(uint32(len(s.epochs)))
		for _, ep := range s.epochs {
			w.Int(ep.core)
			w.Int(ep.stores)
			encodeVersionMap(w, ep.dirty)
		}
		encodeTimeMap(w, s.lineAvail)
		encodeTimeMap(w, s.llcPersistDone)

	case *hwrpSys:
		w.U8(3)
		w.U32(uint32(len(s.sfr)))
		for i := range s.sfr {
			encodeVersionMap(w, s.sfr[i])
			w.Int(s.sfrStores[i])
			w.Int(s.outstanding[i])
			w.U32(uint32(len(s.syncWaiters[i])))
		}

	default:
		w.U8(0)
	}
}
