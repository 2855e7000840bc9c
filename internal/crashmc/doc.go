// Package crashmc turns the one-shot crash-consistency check into a
// model-checking campaign engine for the paper's correctness claim (§II):
// every NVM image recovered after a power failure must be a TSO-consistent
// cut of the pre-crash execution.
//
// Formal-methods work on this model (Khyzha & Lahav, "Taming x86-TSO
// Persistency"; Bila et al., "View-Based Owicki-Gries Reasoning for
// Persistent x86-TSO") shows persistency bugs hide in narrow windows around
// specific transitions, not at evenly spaced cycles. The package therefore
// provides four layers:
//
//   - Crash-point exploration (points.go): a first probed run
//     (HarvestWorkload) harvests the cycles of every persistency
//     transition — atomic-group freezes, AGB ingress and egress,
//     persist-token hand-offs, eviction-buffer drains — and campaigns crash
//     at those cycles and their neighbors, topped up with seeded random
//     sweeps. Every crash sweep, here and in the litmus explorer, goes
//     through Sweep, which advances one machine through ascending points
//     and captures the state at each; Replay, a fresh machine per point, is
//     its reference.
//   - Adversarial workloads (adversary.go): trace.Profile schedules built to
//     stress the machinery — contended hot lines, eviction storms,
//     AG-size-limit pressure, cross-core dependency chains — plus a
//     pressure configuration that shrinks the AGB and eviction buffers.
//   - Checker mutation testing (mutation.go): machine.CrashFault injections
//     deliberately break persistency (torn group, skipped persist-before
//     edge, leaked undurable version, reordered durable replay, ...); every
//     one of the checker's rules must fire, guarding against a vacuously
//     green checker.
//   - A parallel campaign driver (campaign.go) fanning out over
//     (benchmark × system × crash point) tuples with a worker pool,
//     failing-case minimization (shrink.go), and JSON artifacts for CI
//     (report.go).
package crashmc
