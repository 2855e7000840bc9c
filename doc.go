// Package repro is a from-scratch Go reproduction of "TSOPER: Efficient
// Coherence-Based Strict Persistency" (HPCA 2021).
//
// Import repro/tsoper for the public simulation API; see README.md for the
// repository tour, DESIGN.md for the architecture and substitution notes,
// and EXPERIMENTS.md for paper-vs-measured results. cmd/tsoper-experiments
// regenerates every table and figure of the paper's evaluation. The root
// package's own tests are the scheduler and checkpoint equivalence suite.
package repro
