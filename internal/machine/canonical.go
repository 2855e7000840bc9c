package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/agb"
	"repro/internal/cache"
	"repro/internal/faultplan"
	"repro/internal/noc"
	"repro/internal/nvm"
	"repro/internal/sim"
)

// Canonicalization maps a Config onto the normal form that determines the
// simulation's observable results, so results can be cached and deduplicated
// by content address. Two configurations with the same canonical form
// produce byte-identical Results snapshots; any semantic difference changes
// the form. The normalization rules:
//
//   - Operational knobs that provably do not change results are dropped:
//     the scheduler (heap and wheel dispatch identically — the differential
//     suite in scheduler_equiv_test.go holds them to byte-identical
//     snapshots), the telemetry bus and probe (pure observers), and the
//     watchdog horizon (it only converts hangs into errors).
//   - Unset sub-configurations are filled with their defaults, so a Config
//     that spells out noc.DefaultConfig() field by field hashes the same as
//     one that left NoC zero. Likewise the fault plan's resilience defaults.
//   - PersistFilter is an arbitrary function and cannot be content-
//     addressed; canonicalization fails when it is set.

// canonicalConfig is the hashed mirror of Config: every semantic field,
// none of the runtime hooks. Field names are part of the hash domain —
// renaming one deliberately changes every key.
type canonicalConfig struct {
	System             string          `json:"system"`
	Coherence          string          `json:"coherence"`
	Cores              int             `json:"cores"`
	StoreBufferEntries int             `json:"store_buffer_entries"`
	PrivGeom           cache.Geometry  `json:"priv_geom"`
	LLCGeom            cache.Geometry  `json:"llc_geom"`
	LLCBanks           int             `json:"llc_banks"`
	PrivHit            sim.Time        `json:"priv_hit"`
	LLCLatency         sim.Time        `json:"llc_latency"`
	BankOccupancy      sim.Time        `json:"bank_occupancy"`
	SyncLatency        sim.Time        `json:"sync_latency"`
	AGLimit            int             `json:"ag_limit"`
	EvictBufEntries    int             `json:"evict_buf_entries"`
	BSPEpochStores     int             `json:"bsp_epoch_stores"`
	WPQDepth           int             `json:"wpq_depth"`
	CrashFault         int             `json:"crash_fault,omitempty"`
	NoC                noc.Config      `json:"noc"`
	NVM                nvm.Config      `json:"nvm"`
	AGB                agb.Config      `json:"agb"`
	Faults             *faultplan.Spec `json:"faults,omitempty"`
}

// Canonical returns the configuration's normal form: defaults filled,
// result-neutral knobs cleared, runtime hooks stripped. It fails when the
// config carries a PersistFilter, which has no content address.
func (c Config) Canonical() (Config, error) {
	if c.PersistFilter != nil {
		return Config{}, fmt.Errorf("machine: config with a PersistFilter has no canonical form")
	}
	c.Scheduler = sim.SchedulerWheel
	c.Telemetry = nil
	c.Probe = nil
	c.WatchdogHorizon = 0
	if c.NoC == (noc.Config{}) {
		c.NoC = noc.DefaultConfig()
	}
	if c.NVM == (nvm.Config{}) {
		c.NVM = nvm.DefaultConfig()
	}
	if c.AGB == (agb.Config{}) {
		c.AGB = agb.DefaultConfig()
	}
	if c.Faults != nil {
		f := c.Faults.WithDefaults()
		c.Faults = &f
	}
	return c, nil
}

// CanonicalJSON renders the canonical form as deterministic JSON (fixed
// field order, no maps). This is the cache key's preimage; it is also
// human-readable on purpose, so a content-addressed store can show what a
// key stands for.
func (c Config) CanonicalJSON() ([]byte, error) {
	cc, err := c.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(canonicalConfig{
		System:             cc.System.String(),
		Coherence:          cc.Coherence.String(),
		Cores:              cc.Cores,
		StoreBufferEntries: cc.StoreBufferEntries,
		PrivGeom:           cc.PrivGeom,
		LLCGeom:            cc.LLCGeom,
		LLCBanks:           cc.LLCBanks,
		PrivHit:            cc.PrivHit,
		LLCLatency:         cc.LLCLatency,
		BankOccupancy:      cc.BankOccupancy,
		SyncLatency:        cc.SyncLatency,
		AGLimit:            cc.AGLimit,
		EvictBufEntries:    cc.EvictBufEntries,
		BSPEpochStores:     cc.BSPEpochStores,
		WPQDepth:           cc.WPQDepth,
		CrashFault:         int(cc.CrashFault),
		NoC:                cc.NoC,
		NVM:                cc.NVM,
		AGB:                cc.AGB,
		Faults:             cc.Faults,
	})
}

// CanonicalHash returns the hex SHA-256 of the canonical JSON — the
// configuration's content address.
func (c Config) CanonicalHash() (string, error) {
	b, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
