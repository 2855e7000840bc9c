package faultplan

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// Counts is the injection and recovery ledger of one run. The resilience
// campaigns assert Lost() == 0: every injected fault was either retried to
// success or degraded around.
type Counts struct {
	// NVM injections and recoveries.
	NVMWriteFails uint64 `json:"nvm_write_fails,omitempty"`
	NVMReadFails  uint64 `json:"nvm_read_fails,omitempty"`
	NVMSpikes     uint64 `json:"nvm_spikes,omitempty"`
	NVMRetries    uint64 `json:"nvm_retries,omitempty"`
	NVMDegraded   uint64 `json:"nvm_degraded_ranks,omitempty"`
	NVMAbandoned  uint64 `json:"nvm_abandoned,omitempty"`

	// NoC injections and recoveries.
	NoCDrops       uint64 `json:"noc_drops,omitempty"`
	NoCRetransmits uint64 `json:"noc_retransmits,omitempty"`
	NoCEscalations uint64 `json:"noc_escalations,omitempty"`
	NoCDups        uint64 `json:"noc_dups_suppressed,omitempty"`
	NoCDelays      uint64 `json:"noc_delays,omitempty"`

	// AGB injections and recoveries.
	AGBStalls    uint64 `json:"agb_stalls,omitempty"`
	AGBOfflines  uint64 `json:"agb_offlines,omitempty"`
	AGBRedirects uint64 `json:"agb_redirects,omitempty"`
}

// Injected totals the faults injected (not the recovery actions).
func (c Counts) Injected() uint64 {
	return c.NVMWriteFails + c.NVMReadFails + c.NVMSpikes +
		c.NoCDrops + c.NoCDups + c.NoCDelays +
		c.AGBStalls + c.AGBOfflines
}

// Recoveries totals the recovery actions taken: NVM retries, NoC
// retransmissions and escalations, and AGB redirects.
func (c Counts) Recoveries() uint64 {
	return c.NVMRetries + c.NoCRetransmits + c.NoCEscalations + c.AGBRedirects
}

// Lost counts faults that were neither retried to success nor degraded
// around — permanently lost persists. Nonzero only under the test-only
// DisableDegradation mode; campaigns assert zero.
func (c Counts) Lost() uint64 { return c.NVMAbandoned }

func (c Counts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nvm[fails=%d/%d spikes=%d retries=%d degraded=%d abandoned=%d]",
		c.NVMWriteFails, c.NVMReadFails, c.NVMSpikes, c.NVMRetries, c.NVMDegraded, c.NVMAbandoned)
	fmt.Fprintf(&b, " noc[drops=%d rexmit=%d escalated=%d dups=%d delays=%d]",
		c.NoCDrops, c.NoCRetransmits, c.NoCEscalations, c.NoCDups, c.NoCDelays)
	fmt.Fprintf(&b, " agb[stalls=%d offlines=%d redirects=%d]",
		c.AGBStalls, c.AGBOfflines, c.AGBRedirects)
	return b.String()
}

// Decision stream indices: one independent pseudo-random sequence per
// component keeps the schedules decorrelated while staying deterministic.
const (
	streamNVM = iota
	streamNoC
	streamAGB
	numStreams
)

// Plan is one machine's compiled fault schedule: the Spec plus the mutable
// decision and degradation state. A Plan belongs to exactly one machine and
// is not safe for concurrent use (the simulation is single-threaded);
// parallel campaigns compile one Plan per machine from a shared Spec.
type Plan struct {
	spec Spec
	rng  [numStreams]uint64
	n    Counts

	// degraded marks ranks routed around after retry-budget exhaustion.
	degraded []bool

	// bus/track carry fault instants onto the telemetry timeline so
	// Perfetto traces show fault -> retry -> recovery causality.
	bus   *telemetry.Bus
	track telemetry.Track
}

// New compiles a spec (applying resilience defaults) into a fresh plan.
func New(spec Spec) *Plan {
	p := &Plan{spec: spec.WithDefaults()}
	for i := range p.rng {
		// Distinct nonzero stream states derived from the seed.
		p.rng[i] = uint64(spec.Seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	}
	return p
}

// Spec returns the effective schedule (defaults applied).
func (p *Plan) Spec() Spec { return p.spec }

// Counts returns a copy of the injection ledger.
func (p *Plan) Counts() Counts { return p.n }

// Instrument attaches a telemetry bus; fault instants land on a dedicated
// "faults" track. A nil or sinkless bus is a no-op.
func (p *Plan) Instrument(bus *telemetry.Bus) {
	if !bus.Enabled() {
		return
	}
	p.bus = bus
	p.track = bus.Track("faults", "injector")
}

// mark drops a fault instant on the timeline (no-op without a bus).
func (p *Plan) mark(name string, at uint64, scope, aux uint64) {
	if p.bus == nil {
		return
	}
	p.bus.Instant(p.track, name, telemetry.Ticks(at), scope, aux)
}

// next advances one decision stream (splitmix64).
func (p *Plan) next(stream int) uint64 {
	p.rng[stream] += 0x9e3779b97f4a7c15
	z := p.rng[stream]
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws from the stream iff pct > 0 so that schedules without a
// fault class leave that class's randomness untouched.
func (p *Plan) chance(stream int, pct float64) bool {
	if pct <= 0 {
		return false
	}
	return float64(p.next(stream)>>11)/float64(1<<53) < pct
}

func inOutage(outs []Outage, unit int, at uint64) bool {
	for _, o := range outs {
		if o.contains(unit, at) {
			return true
		}
	}
	return false
}

// ensureRank grows the degradation table to cover rank (steady-state free).
func (p *Plan) ensureRank(rank int) {
	for len(p.degraded) <= rank {
		p.degraded = append(p.degraded, false)
	}
}

// ---- NVM hooks ----

// NVMWriteAttempt decides whether one write attempt to rank fails at media
// time `at`. Degraded ranks never fail (they are being routed around).
func (p *Plan) NVMWriteAttempt(rank int, at, line uint64) bool {
	p.ensureRank(rank)
	if p.degraded[rank] {
		return false
	}
	if !inOutage(p.spec.NVM.Outages, rank, at) && !p.chance(streamNVM, p.spec.NVM.WriteFailPct) {
		return false
	}
	p.n.NVMWriteFails++
	p.mark("fault:nvm-write-fail", at, uint64(rank), line)
	return true
}

// NVMReadAttempt is NVMWriteAttempt for reads.
func (p *Plan) NVMReadAttempt(rank int, at, line uint64) bool {
	p.ensureRank(rank)
	if p.degraded[rank] {
		return false
	}
	if !inOutage(p.spec.NVM.Outages, rank, at) && !p.chance(streamNVM, p.spec.NVM.ReadFailPct) {
		return false
	}
	p.n.NVMReadFails++
	p.mark("fault:nvm-read-fail", at, uint64(rank), line)
	return true
}

// NVMRetry records a backoff retry scheduled for cycle at.
func (p *Plan) NVMRetry(rank int, at uint64) {
	p.n.NVMRetries++
	p.mark("fault:nvm-retry", at, uint64(rank), 0)
}

// NVMDegrade marks a rank degraded after retry-budget exhaustion:
// subsequent attempts succeed at DegradedFactor× latency. Idempotent.
func (p *Plan) NVMDegrade(rank int, at uint64) {
	p.ensureRank(rank)
	if p.degraded[rank] {
		return
	}
	p.degraded[rank] = true
	p.n.NVMDegraded++
	p.mark("fault:nvm-degraded", at, uint64(rank), 0)
}

// NVMDegraded reports whether the rank has been degraded.
func (p *Plan) NVMDegraded(rank int) bool {
	return rank < len(p.degraded) && p.degraded[rank]
}

// NVMAbandon records a permanently lost access (DisableDegradation only).
func (p *Plan) NVMAbandon(rank int, at uint64) {
	p.n.NVMAbandoned++
	p.mark("fault:nvm-abandoned", at, uint64(rank), 0)
}

// NVMLatencyFactor is the multiplier for a successful access: the degraded
// penalty on a degraded rank, a transient spike otherwise, 1 normally.
func (p *Plan) NVMLatencyFactor(rank int, at uint64) int {
	if p.NVMDegraded(rank) {
		return p.spec.Resilience.DegradedFactor
	}
	if p.chance(streamNVM, p.spec.NVM.SpikePct) {
		p.n.NVMSpikes++
		p.mark("fault:nvm-spike", at, uint64(rank), uint64(p.spec.NVM.SpikeFactor))
		return p.spec.NVM.SpikeFactor
	}
	return 1
}

// NVMRetryLimit / NVMBackoff / DegradationDisabled expose the NVM
// resilience parameters.
func (p *Plan) NVMRetryLimit() int        { return p.spec.Resilience.NVMRetryLimit }
func (p *Plan) NVMBackoff() uint64        { return p.spec.Resilience.NVMBackoff }
func (p *Plan) DegradationDisabled() bool { return p.spec.Resilience.DisableDegradation }

// ---- NoC hooks ----

// NoCDropAttempt decides whether one transmission is lost in the network.
func (p *Plan) NoCDropAttempt(at uint64, src, dst int) bool {
	if !p.chance(streamNoC, p.spec.NoC.DropPct) {
		return false
	}
	p.n.NoCDrops++
	p.mark("fault:noc-drop", at, uint64(src), uint64(dst))
	return true
}

// NoCRetransmit records an ack-timeout retransmission at cycle at.
func (p *Plan) NoCRetransmit(at uint64, src int) {
	p.n.NoCRetransmits++
	p.mark("fault:noc-retransmit", at, uint64(src), 0)
}

// NoCEscalate records the sender giving up on retransmission and taking
// the slow guaranteed path.
func (p *Plan) NoCEscalate(at uint64, src int) {
	p.n.NoCEscalations++
	p.mark("fault:noc-escalated", at, uint64(src), 0)
}

// NoCDuplicate decides whether the delivery's ack is lost: the sender
// retransmits although the message arrived, and the receiver's
// sequence-number dedup suppresses the duplicate.
func (p *Plan) NoCDuplicate(at uint64, src int) bool {
	if !p.chance(streamNoC, p.spec.NoC.DupPct) {
		return false
	}
	p.n.NoCDups++
	p.mark("fault:noc-dup-suppressed", at, uint64(src), 0)
	return true
}

// NoCDelay returns the extra delivery delay for this message (0 = none).
func (p *Plan) NoCDelay(at uint64) uint64 {
	if !p.chance(streamNoC, p.spec.NoC.DelayPct) {
		return 0
	}
	p.n.NoCDelays++
	p.mark("fault:noc-delay", at, 0, p.spec.NoC.DelayCycles)
	return p.spec.NoC.DelayCycles
}

// AckTimeout / MaxRetransmits expose the NoC resilience parameters.
func (p *Plan) AckTimeout() uint64  { return p.spec.Resilience.AckTimeout }
func (p *Plan) MaxRetransmits() int { return p.spec.Resilience.MaxRetransmits }

// ---- AGB hooks ----

// AGBOutages returns the scheduled slice-offline windows.
func (p *Plan) AGBOutages() []Outage { return p.spec.AGB.Outages }

// AGBStall returns the stall duration injected before a line transfer into
// slice (0 = no stall).
func (p *Plan) AGBStall(at uint64, slice int) uint64 {
	if !p.chance(streamAGB, p.spec.AGB.StallPct) {
		return 0
	}
	p.n.AGBStalls++
	p.mark("fault:agb-stall", at, uint64(slice), p.spec.AGB.StallCycles)
	return p.spec.AGB.StallCycles
}

// AGBOffline records a slice going offline (off=true) or recovering.
func (p *Plan) AGBOffline(at uint64, slice int, off bool) {
	if off {
		p.n.AGBOfflines++
		p.mark("fault:agb-offline", at, uint64(slice), 0)
		return
	}
	p.mark("fault:agb-online", at, uint64(slice), 0)
}

// AGBRedirect records the arbiter routing a line around an offline slice.
func (p *Plan) AGBRedirect(at, line uint64, from, to int) {
	p.n.AGBRedirects++
	p.mark("fault:agb-redirect", at, uint64(from), uint64(to))
}
