// Package litmus is the Px86 litmus-test conformance oracle: executable
// persistency litmus tests in the style of "Taming x86-TSO Persistency"
// (Khyzha & Lahav) with exact allowed/forbidden durable-outcome sets,
// checked against the simulated machine.
//
// A test is a handful of shared variables plus one tiny program per core
// built from five operations: stores, loads, MFENCE, lock-prefixed RMW
// (modeled as a fenced atomic store), and group markers (§II-D persist
// epoch boundaries). The declared oracle is a set of durable outcomes —
// which value of each variable survives a crash — rather than register
// values: under strict persistency the recovered NVM image must be a
// TSO-consistent cut of the execution, and the reference model in model.go
// enumerates exactly the images such cuts can produce.
//
// The explorer (explore.go) drives each test through the real machine
// across every harvested persistency-transition crash cycle (reusing
// crashmc's probe-event harvesting), a sweep of interleaving perturbations
// (per-core start skews and seeded inter-op jitter), and collects the set
// of reachable durable outcomes. The sweep forks as crashmc's campaigns do:
// per perturbation, one machine starts the lowered workload once and
// advances through the ascending crash points, capturing the crash state at
// each (machine.StartCrashRun, AdvanceTo, CaptureCrashState), so the prefix
// up to each point simulates once rather than once per later point. A test
// keeps the per-point replay (a fresh machine run from cycle 0 to each
// point) as the reference the forked Results must match byte for byte.
// Conformance demands three things at once:
//
//  1. soundness — every reached outcome is in the allowed set;
//  2. coverage — every allowed outcome is eventually reached (the machine
//     realizes the full model, not a convenient subset);
//  3. agreement — the hand-written crash-consistency checker accepts every
//     reached state; a state the checker rejects while the outcome oracle
//     allows it (or vice versa) is a bug in one of the two oracles.
//
// The generated corpus (gen.go, checked in under corpus/ as golden files)
// covers the canonical shapes — SB, MP, 2+2W, IRIW, CoRR, WRC, R, S,
// RMW/fence variants, multi-store persist epochs, and crash-mid-drain
// stressors — and is additionally gated across both event schedulers
// (byte-identical reachable sets) and runtime fault presets.
package litmus
