package harness

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/program"
)

// envFor maps a machine configuration onto the program compiler's target
// shape: the config's core count and NVM rank interleave.
func envFor(cfg machine.Config) program.Env {
	return program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}
}

// RunProgramConfigChecked compiles the program for the configuration's
// shape and runs it. Options.Scale is ignored: a program's size is spelled
// out by its instructions (the profile instruction carries its own scale).
// Validation, compile, configuration, and wedged-run failures come back as
// errors. Determinism matches the profile path: the result is a pure
// function of (program, config, seed).
func RunProgramConfigChecked(p *program.Program, cfg machine.Config, o Options) (*machine.Results, error) {
	cfg = o.override(cfg)
	w, err := p.Compile(envFor(cfg), o.Seed)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return RunWorkload(cfg, w)
}

// EstimateProgram is the admission-control view: the program's cost for the
// configuration's machine shape, with no compilation or simulation.
func EstimateProgram(p *program.Program, cfg machine.Config) (program.Estimate, error) {
	return p.Estimate(envFor(cfg))
}
