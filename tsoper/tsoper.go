// Package tsoper is the public API of the TSOPER reproduction: an
// architectural simulator for hardware strict TSO persistency as proposed
// in "TSOPER: Efficient Coherence-Based Strict Persistency" (HPCA 2021).
//
// The simulator models an eight-core CMP with TSO store buffers, private
// caches running an SCI-style sharing-list coherence protocol (SLC), a
// banked shared LLC, an Atomic Group Buffer (AGB) in the persistent domain,
// a mesh NoC, and NVM ranks. Seven persistency systems are available, from
// the non-persistent SLC baseline through relaxed (HW-RP) and
// epoch-through-LLC (BSP and stepping stones) designs to stop-the-world and
// full TSOPER strict persistency.
//
// Quick start:
//
//	profile, _ := tsoper.Benchmark("radix")
//	res, err := tsoper.Run(profile, tsoper.TSOPER, tsoper.RunOptions{})
//	fmt.Println(res)
//
// Crash-consistency testing:
//
//	cs, err := tsoper.Crash(profile, tsoper.TSOPER, 25_000, tsoper.RunOptions{})
//	err = tsoper.Check(cs) // nil: the recovered image is a TSO-consistent cut
package tsoper

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/checker"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

// System selects the persistency system under evaluation.
type System = machine.SystemKind

// The systems compared in the paper's evaluation (§V).
const (
	// Baseline is SLC coherence with no persistency support.
	Baseline = machine.Baseline
	// HWRP is hardware relaxed persistency over synchronization-free regions.
	HWRP = machine.HWRP
	// BSP is Buffered Strict Persistency (epochs through the LLC).
	BSP = machine.BSP
	// BSPSLC is BSP with sharing-list coherence (no L1 exclusion).
	BSPSLC = machine.BSPSLC
	// BSPSLCAGB is BSP+SLC persisting through an idealized unbounded AGB.
	BSPSLCAGB = machine.BSPSLCAGB
	// STW is stop-the-world strict TSO persistency.
	STW = machine.STW
	// TSOPER is the paper's full proposal.
	TSOPER = machine.TSOPER
)

// Protocol selects the coherence backend the machine runs on. Every system
// composes with every protocol: the sharing list retains unpersisted
// versions and answers persist ordering under all of them, while the
// protocol sets invalidation timing and, under Tardis, lease renewals.
type Protocol = machine.CoherenceKind

const (
	// ProtocolSLC is the paper's SCI-style sharing-list protocol (default).
	ProtocolSLC = machine.CoherenceSLC
	// ProtocolMESI is a conventional bit-vector directory MESI.
	ProtocolMESI = machine.CoherenceMESI
	// ProtocolTardis is timestamp coherence: lease-based reads, logical-time
	// bumps on writes, no invalidation traffic.
	ProtocolTardis = machine.CoherenceTardis
)

// Protocols lists every coherence backend in bake-off order.
func Protocols() []Protocol { return machine.Coherences() }

// ParseProtocol parses "slc" (or ""), "mesi", and "tardis".
func ParseProtocol(s string) (Protocol, error) { return machine.ParseCoherenceKind(s) }

// Config is the full machine configuration (Table I geometry and timing).
type Config = machine.Config

// Results summarizes a completed simulation.
type Results = machine.Results

// CrashState is the recovered durable state after an injected crash.
type CrashState = machine.CrashState

// Profile parameterizes a synthetic workload.
type Profile = trace.Profile

// Workload is a generated per-core operation trace.
type Workload = trace.Workload

// Systems lists every available system in figure order.
func Systems() []System { return machine.Systems() }

// TableI returns the paper's evaluated configuration for a system.
func TableI(system System) Config { return machine.TableI(system) }

// Benchmarks returns the 22 synthetic profiles standing in for the paper's
// PARSEC 3.0 and Splash-3 roster.
func Benchmarks() []Profile { return trace.Benchmarks() }

// Benchmark looks up one benchmark profile by name.
func Benchmark(name string) (Profile, bool) { return trace.ByName(name) }

// Generate builds the deterministic workload for a profile.
func Generate(p Profile, cores int, seed int64) *Workload {
	return trace.Generate(p, cores, seed)
}

// RunOptions tunes a single simulation run. Every run simulates from
// cycle 0 to completion on a fresh machine, and its results are a
// deterministic function of the workload, the configuration and the seed.
type RunOptions struct {
	// Scale multiplies the profile's OpsPerCore (0 or 1 = full size).
	Scale float64
	// Seed drives workload generation (default 42).
	Seed int64
	// Protocol selects the coherence backend (default SLC). Applied after
	// Config, so it also overrides an explicit Config's Coherence field.
	Protocol Protocol
	// Config overrides the Table I configuration when non-nil.
	Config *Config
}

func (o RunOptions) config(system System) Config {
	cfg := TableI(system)
	if o.Config != nil {
		cfg = *o.Config
	}
	if o.Protocol != ProtocolSLC {
		cfg.Coherence = o.Protocol
	}
	return cfg
}

func (o RunOptions) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o RunOptions) scale(p Profile) Profile {
	if o.Scale > 0 && o.Scale != 1 {
		return p.Scale(o.Scale)
	}
	return p
}

// Run simulates one benchmark under one system to completion (including
// the end-of-run persist flush) and returns the results.
func Run(p Profile, system System, o RunOptions) (*Results, error) {
	cfg := o.config(system)
	cfg.System = system
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tsoper: %w", err)
	}
	w := trace.Generate(o.scale(p), cfg.Cores, o.seed())
	return runWorkload(cfg, w)
}

// runWorkload simulates the workload to completion on a fresh machine.
func runWorkload(cfg Config, w *Workload) (*Results, error) {
	r, err := harness.RunWorkload(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("tsoper: %w", err)
	}
	return r, nil
}

// Crash simulates until the given cycle, then injects a power failure and
// returns the recovered durable state.
func Crash(p Profile, system System, at uint64, o RunOptions) (*CrashState, error) {
	cfg := o.config(system)
	cfg.System = system
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("tsoper: %w", err)
	}
	w := trace.Generate(o.scale(p), cfg.Cores, o.seed())
	return m.RunWithCrash(w, sim.Time(at)), nil
}

// Check validates that a crash state's recovered image is a TSO-consistent
// cut: atomic groups recovered all-or-nothing, persist order prefix-closed
// per core and under persist-before dependencies, per-line FIFO respected.
// It returns nil when the state is consistent.
func Check(cs *CrashState) error { return checker.Check(cs) }

// Program is a workload VM program (see internal/program and PROGRAMS.md).
type Program = program.Program

// ProgramEstimate is a program's up-front cost estimate.
type ProgramEstimate = program.Estimate

// LoadProgram resolves a name-or-path: an embedded library name first
// ("radix", "producer-consumer-ring", …), then a JSON file on disk.
func LoadProgram(nameOrPath string) (*Program, error) {
	if p, err := program.ByName(nameOrPath); err == nil {
		return p, nil
	}
	f, err := os.Open(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("tsoper: %q is neither a library program (have: %s) nor a readable file: %w",
			nameOrPath, strings.Join(program.LibraryNames(), ", "), err)
	}
	defer f.Close()
	p, err := program.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("tsoper: %s: %w", nameOrPath, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tsoper: %s: %w", nameOrPath, err)
	}
	return p, nil
}

// LibraryPrograms lists the embedded golden program library.
func LibraryPrograms() []string { return program.LibraryNames() }

// CompileProgram lowers a program for the configuration's machine shape —
// the workload a RunProgram call with the same inputs would execute.
func CompileProgram(p *Program, cfg Config, seed int64) (*Workload, error) {
	w, err := p.Compile(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}, seed)
	if err != nil {
		return nil, fmt.Errorf("tsoper: %w", err)
	}
	return w, nil
}

// EstimateProgram computes a program's cost for a system's Table I shape
// (or RunOptions.Config when set) without compiling or simulating.
func EstimateProgram(p *Program, system System, o RunOptions) (ProgramEstimate, error) {
	cfg := o.config(system)
	est, err := p.Estimate(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks})
	if err != nil {
		return ProgramEstimate{}, fmt.Errorf("tsoper: %w", err)
	}
	return est, nil
}

// RunProgram compiles a workload program and simulates it to completion,
// mirroring Run. RunOptions.Scale is ignored: programs size themselves.
func RunProgram(p *Program, system System, o RunOptions) (*Results, error) {
	cfg := o.config(system)
	cfg.System = system
	w, err := CompileProgram(p, cfg, o.seed())
	if err != nil {
		return nil, err
	}
	return runWorkload(cfg, w)
}
