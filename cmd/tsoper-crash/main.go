// Command tsoper-crash runs crash-injection campaigns against the strict
// persistency systems and verifies every recovered NVM image is a
// TSO-consistent cut (atomic groups all-or-nothing, persist order
// prefix-closed per core and under persist-before dependencies, per-line
// FIFO).
//
// Modes:
//
//	tsoper-crash -bench radix -system tsoper -crashes 50 -scale 0.3
//	    sweep one benchmark x system cell, printing every crash point
//	tsoper-crash -program producer-consumer-ring -crashes 30
//	    sweep a workload-VM program (library name or JSON file) instead
//	tsoper-crash -campaign smoke -parallel 4 -json smoke.json
//	    the CI campaign: adversarial workloads x {tsoper, stw},
//	    event-targeted crash points, parallel workers
//	tsoper-crash -campaign mutation
//	    checker mutation testing: every injected persistency fault must
//	    be rejected with exactly the rule it is engineered to trip
//	tsoper-crash -bench radix -system tsoper,stw -faults storm,noc-lossy
//	    the resilience campaign: each cell runs clean, then under each
//	    runtime fault preset end to end and cut at -crashes points
//	    (default 10); every fault must recover, the stall watchdog must
//	    stay silent, and the checker must accept every recovered state
//	tsoper-crash -campaign resilience -parallel 4 -json results/faults.json
//	    the CI resilience campaign: two adversaries x tsoper x every preset
//
// The sweep and smoke modes crash at harvested persistency-transition
// cycles, topped up with distinct seeded random cycles the harvest missed,
// and fork each crash point from an incrementally advanced prefix machine.
// -protocol selects the coherence backend (slc, mesi, or tardis) for those
// modes. Each mode reads only the flags in its modeFlags row; setting any
// other flag, or passing a positional argument, is a usage error.
//
// Exit status: 0 clean, 1 violations, surviving mutants, stalls or lost
// persists, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/crashmc"
	"repro/internal/faultplan"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/tsoper"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks argument mistakes: run exits 2 for those, 1 for
// runtime findings.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-crash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "radix", "comma-separated benchmark names")
	progFlag := fs.String("program", "", "comma-separated library programs (or JSON files) to crash-sweep instead of -bench")
	system := fs.String("system", "tsoper", "comma-separated strict systems: tsoper, stw")
	crashes := fs.Int("crashes", 40, "crash points per benchmark x system tuple, or per resilience cell (> 0; smoke defaults to 50, resilience to 10)")
	scale := fs.Float64("scale", 0.3, "workload scale factor (> 0)")
	seed := fs.Int64("seed", 42, "workload seed")
	protoFlag := fs.String("protocol", "slc", "coherence protocol: slc, mesi, or tardis")
	campaign := fs.String("campaign", "", "predefined campaign on its own grid: smoke, mutation, or resilience")
	faults := fs.String("faults", "", "comma-separated fault presets to run the resilience campaign under, over the -bench x -system grid: "+
		strings.Join(faultplan.PresetNames(), ", "))
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write the campaign report to this path as JSON")
	shrink := fs.Bool("shrink", false, "minimize each failing crash point before reporting it")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " ")))
	}
	mode, err := selectMode(*campaign, *faults, *progFlag)
	if err != nil {
		return usage(err)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if err == nil && !slices.Contains(modeFlags[mode], f.Name) {
			err = usagef("-%s does not apply to the %s", f.Name, mode)
		}
	})
	if err != nil {
		return usage(err)
	}

	if !set["crashes"] {
		switch mode {
		case "resilience sweep", "resilience campaign":
			*crashes = 10
		case "smoke campaign":
			*crashes = 50 // x 2 adversaries x 2 systems = 200 injections
		}
	}
	proto, perr := tsoper.ParseProtocol(*protoFlag)
	switch {
	case *crashes <= 0:
		return usage(fmt.Errorf("-crashes must be positive, got %d", *crashes))
	case *scale <= 0:
		return usage(fmt.Errorf("-scale must be positive, got %g", *scale))
	case perr != nil:
		return usage(perr)
	}

	var report *crashmc.Report
	switch mode {
	case "resilience sweep", "resilience campaign":
		spec, err := resilienceSpec(*bench, *system, *faults, *crashes, *scale, *seed, *campaign, *parallel)
		if err != nil {
			return usage(err)
		}
		return runResilience(stdout, stderr, spec, *jsonPath)
	case "smoke campaign":
		report, err = crashmc.Run(crashmc.Spec{
			Name:       "smoke",
			Benchmarks: crashmc.Adversaries()[:2],
			Systems:    []machine.SystemKind{machine.TSOPER, machine.STW},
			Seed:       *seed,
			Points:     *crashes,
			Parallel:   *parallel,
			Shrink:     *shrink,
			Coherence:  proto,
		})
		if report != nil {
			fmt.Fprintln(stdout, report.Summary())
		}
	case "mutation campaign":
		report, err = runMutation(*seed, *crashes)
	default:
		report, err = runSweep(stdout, *bench, *progFlag, *system, proto, *crashes,
			*scale, *seed, *parallel, *shrink)
	}
	var uerr usageError
	if errors.As(err, &uerr) {
		return usage(uerr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if report == nil {
			return 1
		}
	}

	if *jsonPath != "" {
		if werr := report.WriteJSONFile(*jsonPath); werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
	}
	for _, inj := range report.Violations {
		fmt.Fprintf(stderr, "VIOLATION %s/%s @%d: %s\n", inj.Benchmark, inj.System, inj.At, inj.Violation)
		if inj.Shrunk != nil {
			fmt.Fprintf(stderr, "  shrunk: %s\n", inj.Shrunk)
		}
	}
	for _, k := range report.Kills {
		status := "killed"
		if !k.Killed {
			status = "SURVIVED"
		}
		fmt.Fprintf(stdout, "mutant %-16s -> rule %-15s %s (applied at %d of %d points)\n",
			k.Fault, k.Expected, status, k.Applied, k.Tried)
	}
	if !report.Clean() || err != nil {
		return 1
	}
	return 0
}

// modeFlags lists, for each mode, the flags it reads. run rejects any set
// flag outside the selected mode's row, so no mode ignores a flag silently.
var modeFlags = map[string][]string{
	"sweep":               {"bench", "system", "crashes", "scale", "seed", "protocol", "parallel", "json", "shrink"},
	"program sweep":       {"program", "system", "crashes", "seed", "protocol", "parallel", "json", "shrink"},
	"smoke campaign":      {"campaign", "crashes", "seed", "protocol", "parallel", "json", "shrink"},
	"mutation campaign":   {"campaign", "crashes", "seed", "json"},
	"resilience sweep":    {"faults", "bench", "system", "crashes", "scale", "seed", "parallel", "json"},
	"resilience campaign": {"campaign", "crashes", "scale", "seed", "parallel", "json"},
}

// selectMode names the mode the flags select, in precedence order:
// -campaign, -faults, -program, else the benchmark sweep.
func selectMode(campaign, faults, programs string) (string, error) {
	switch {
	case campaign == "smoke", campaign == "mutation", campaign == "resilience":
		return campaign + " campaign", nil
	case campaign != "":
		return "", usagef("unknown campaign %q (want smoke, mutation, or resilience)", campaign)
	case faults != "":
		return "resilience sweep", nil
	case programs != "":
		return "program sweep", nil
	}
	return "sweep", nil
}

// parseBenches resolves comma-separated benchmark names against the trace
// roster, then the crashmc adversaries.
func parseBenches(names string) ([]trace.Profile, error) {
	var profiles []trace.Profile
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		p, ok := trace.ByName(name)
		if !ok {
			if p, ok = crashmc.Adversary(name); !ok {
				return nil, usagef("unknown benchmark %q", name)
			}
		}
		profiles = append(profiles, p)
	}
	return profiles, nil
}

// parseSystems resolves comma-separated system names; only the strict
// systems claim what the checker verifies.
func parseSystems(names string) ([]machine.SystemKind, error) {
	var kinds []machine.SystemKind
	for _, name := range strings.Split(names, ",") {
		switch strings.TrimSpace(name) {
		case "tsoper":
			kinds = append(kinds, machine.TSOPER)
		case "stw":
			kinds = append(kinds, machine.STW)
		default:
			return nil, usagef("crash checking requires a strict system (tsoper or stw), got %q", name)
		}
	}
	return kinds, nil
}

// runSweep is the legacy single-cell mode, generalized to comma-separated
// benchmark/system lists (or workload-VM programs), with the
// per-crash-point output lines preserved.
func runSweep(stdout io.Writer, benches, programs, systems string, proto tsoper.Protocol, crashes int, scale float64, seed int64, parallel int, shrink bool) (*crashmc.Report, error) {
	var profiles []trace.Profile
	var progs []*program.Program
	if programs != "" {
		for _, name := range strings.Split(programs, ",") {
			p, err := tsoper.LoadProgram(strings.TrimSpace(name))
			if err != nil {
				return nil, usageError{err}
			}
			progs = append(progs, p)
		}
	} else {
		var err error
		if profiles, err = parseBenches(benches); err != nil {
			return nil, err
		}
	}
	kinds, err := parseSystems(systems)
	if err != nil {
		return nil, err
	}
	report, err := crashmc.Run(crashmc.Spec{
		Name:       "sweep",
		Benchmarks: profiles,
		Programs:   progs,
		Systems:    kinds,
		Scale:      scale,
		Seed:       seed,
		Points:     crashes,
		Parallel:   parallel,
		Shrink:     shrink,
		Detail:     true,
		Coherence:  proto,
	})
	if err != nil {
		return report, err
	}
	for _, inj := range report.Details {
		status := "consistent"
		if inj.Violation != "" {
			status = inj.Violation
		}
		fmt.Fprintf(stdout, "%s/%s crash @%8d: %3d/%3d groups durable — %s\n",
			inj.Benchmark, inj.System, inj.At, inj.Durable, inj.Groups, status)
	}
	fmt.Fprintf(stdout, "\n%s\n", report.Summary())
	return report, nil
}

// resilienceSpec builds the resilience campaign's spec: -campaign
// resilience is the CI grid, and -faults grids -bench x -system x the named
// presets.
func resilienceSpec(bench, system, faults string, points int, scale float64,
	seed int64, campaign string, parallel int) (spec crashmc.ResilienceSpec, err error) {
	spec = crashmc.ResilienceSpec{Name: "sweep", Scale: scale, Seed: seed, Points: points, Parallel: parallel}
	if campaign == "resilience" {
		spec.Name = "smoke"
		spec.Benchmarks = crashmc.Adversaries()[:2]
		spec.Systems = []machine.SystemKind{machine.TSOPER}
		spec.Schedules = faultplan.Presets()
		return spec, nil
	}
	if spec.Benchmarks, err = parseBenches(bench); err != nil {
		return spec, err
	}
	if spec.Systems, err = parseSystems(system); err != nil {
		return spec, err
	}
	for _, name := range strings.Split(faults, ",") {
		name = strings.TrimSpace(name)
		preset, ok := faultplan.Preset(name)
		if !ok {
			return spec, usagef("unknown fault preset %q (presets: %s)", name, strings.Join(faultplan.PresetNames(), ", "))
		}
		spec.Schedules = append(spec.Schedules, preset)
	}
	return spec, nil
}

// runResilience runs the resilience campaign, printing one line per cell
// and every incident, and returns the exit status.
func runResilience(stdout, stderr io.Writer, spec crashmc.ResilienceSpec, jsonPath string) int {
	report, err := crashmc.RunResilience(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, c := range report.Cells {
		fmt.Fprintf(stdout, "%s/%s under %-14s %8d -> %8d cycles (%+.1f%%), %4d faults, %d points (%d partial): %s\n",
			c.Benchmark, c.System, c.Schedule, c.BaselineCycles, c.FaultedCycles, c.OverheadPct,
			c.Counts.Injected(), c.Points, c.Partial, c.Counts)
		for _, inc := range c.Incidents {
			fmt.Fprintf(stderr, "INCIDENT %s/%s/%s @%d [%s]: %s\n",
				inc.Benchmark, inc.System, inc.Schedule, inc.At, inc.Kind, inc.Detail)
		}
	}
	fmt.Fprintf(stdout, "\n%s\n", report.Summary())
	if jsonPath != "" {
		if err := report.WriteJSONFile(jsonPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !report.Clean() {
		return 1
	}
	return 0
}

// runMutation proves every injected persistency fault is killed, on both
// strict systems, using event-harvested crash points walked newest-first.
func runMutation(seed int64, budget int) (*crashmc.Report, error) {
	report := &crashmc.Report{Name: "mutation", Seed: seed, Scale: 1, Strategy: "events"}
	var firstErr error
	for _, kind := range []machine.SystemKind{machine.TSOPER, machine.STW} {
		kills, err := crashmc.Mutate(crashmc.Adversaries()[0], machine.TableI(kind), seed, budget)
		if kills == nil {
			return nil, err // the campaign could not run
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		report.Kills = append(report.Kills, kills...)
		// Mutate stops each fault at its first applicable point, so the
		// injections that ran are the points each fault tried.
		for _, k := range kills {
			report.Injections += k.Tried
		}
	}
	return report, firstErr
}
