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
//	    a sweep with a fault-plan axis: each cell also runs under each
//	    runtime fault preset, cut at -crashes points (default 10); every
//	    fault must recover, the stall watchdog must stay silent, and the
//	    checker must accept every recovered state
//	tsoper-crash -campaign resilience -parallel 4 -json results/faults.json
//	    the CI resilience campaign: two adversaries x tsoper x every preset
//
// Every mode but mutation is one crashmc.Run campaign: it crashes at
// harvested persistency-transition cycles, topped up with distinct seeded
// random cycles the harvest missed, and forks each crash point from an
// incrementally advanced prefix machine. -protocol selects the coherence
// backend (slc, mesi, or tardis) for the sweeps and the smoke campaign.
// Each mode reads only the flags in its modeFlags row; setting any other
// flag, or passing a positional argument, is a usage error.
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
	crashes := fs.Int("crashes", 40, "crash points per tuple (> 0; smoke defaults to 50, -faults sweeps and the resilience campaign to 10)")
	scale := fs.Float64("scale", 0.3, "workload scale factor (> 0)")
	seed := fs.Int64("seed", 42, "workload seed")
	protoFlag := fs.String("protocol", "slc", "coherence protocol: slc, mesi, or tardis")
	campaign := fs.String("campaign", "", "predefined campaign on its own grid: smoke, mutation, or resilience")
	faults := fs.String("faults", "", "comma-separated fault presets each sweep cell also runs under: "+
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
	mode, err := selectMode(*campaign, *progFlag)
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
		switch {
		case mode == "smoke campaign":
			*crashes = 50 // x 2 adversaries x 2 systems = 200 injections
		case mode == "resilience campaign", *faults != "":
			*crashes = 10
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
	case *shrink && *faults != "":
		return usage(errors.New("-shrink does not apply to a sweep under -faults: a shrunk failure carries no fault schedule"))
	}

	var report *crashmc.Report
	switch mode {
	case "resilience campaign":
		report, err = crashmc.Run(crashmc.Spec{
			Name:       "resilience",
			Benchmarks: crashmc.Adversaries()[:2],
			Systems:    []machine.SystemKind{machine.TSOPER},
			Schedules:  faultplan.Presets(),
			Scale:      *scale,
			Seed:       *seed,
			Points:     *crashes,
			Parallel:   *parallel,
		})
		if report != nil {
			printTuples(stdout, report)
			fmt.Fprintf(stdout, "\n%s\n", report.Summary())
		}
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
		report, err = runSweep(stdout, *bench, *progFlag, *system, *faults, crashmc.Spec{
			Name:      "sweep",
			Scale:     *scale,
			Seed:      *seed,
			Points:    *crashes,
			Parallel:  *parallel,
			Shrink:    *shrink,
			Detail:    true,
			Coherence: proto,
		})
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
		fmt.Fprintf(stderr, "VIOLATION %s @%d: %s\n", cell(inj.Benchmark, inj.System, inj.Schedule), inj.At, inj.Violation)
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
	"sweep":               {"bench", "system", "crashes", "scale", "seed", "protocol", "faults", "parallel", "json", "shrink"},
	"program sweep":       {"program", "system", "crashes", "seed", "protocol", "faults", "parallel", "json", "shrink"},
	"smoke campaign":      {"campaign", "crashes", "seed", "protocol", "parallel", "json", "shrink"},
	"mutation campaign":   {"campaign", "crashes", "seed", "json"},
	"resilience campaign": {"campaign", "crashes", "scale", "seed", "parallel", "json"},
}

// selectMode names the mode the flags select, in precedence order:
// -campaign, -program, else the benchmark sweep.
func selectMode(campaign, programs string) (string, error) {
	switch {
	case campaign == "smoke", campaign == "mutation", campaign == "resilience":
		return campaign + " campaign", nil
	case campaign != "":
		return "", usagef("unknown campaign %q (want smoke, mutation, or resilience)", campaign)
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

// parseSchedules resolves comma-separated fault preset names ("" is none).
func parseSchedules(names string) ([]faultplan.Spec, error) {
	if names == "" {
		return nil, nil
	}
	var schedules []faultplan.Spec
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		preset, ok := faultplan.Preset(name)
		if !ok {
			return nil, usagef("unknown fault preset %q (presets: %s)", name, strings.Join(faultplan.PresetNames(), ", "))
		}
		schedules = append(schedules, preset)
	}
	return schedules, nil
}

// runSweep is the legacy single-cell mode, generalized to comma-separated
// benchmark/system lists (or workload-VM programs) and fault presets, with
// the per-crash-point output lines preserved. spec carries the run
// settings; runSweep fills in its grid.
func runSweep(stdout io.Writer, benches, programs, systems, faults string, spec crashmc.Spec) (*crashmc.Report, error) {
	var err error
	if programs != "" {
		for _, name := range strings.Split(programs, ",") {
			p, err := tsoper.LoadProgram(strings.TrimSpace(name))
			if err != nil {
				return nil, usageError{err}
			}
			spec.Programs = append(spec.Programs, p)
		}
	} else if spec.Benchmarks, err = parseBenches(benches); err != nil {
		return nil, err
	}
	if spec.Systems, err = parseSystems(systems); err != nil {
		return nil, err
	}
	if spec.Schedules, err = parseSchedules(faults); err != nil {
		return nil, err
	}
	report, err := crashmc.Run(spec)
	if err != nil {
		return report, err
	}
	for _, inj := range report.Details {
		status := "consistent"
		if inj.Violation != "" {
			status = inj.Violation
		}
		fmt.Fprintf(stdout, "%s crash @%8d: %3d/%3d groups durable — %s\n",
			cell(inj.Benchmark, inj.System, inj.Schedule), inj.At, inj.Durable, inj.Groups, status)
	}
	if len(spec.Schedules) > 0 {
		fmt.Fprintln(stdout)
		printTuples(stdout, report)
	}
	fmt.Fprintf(stdout, "\n%s\n", report.Summary())
	return report, nil
}

// printTuples prints one line per tuple of a campaign with a fault-plan
// axis: its harvest run's drain horizon and, under a plan, the overhead
// against the fault-free tuple and the fault ledger.
func printTuples(w io.Writer, report *crashmc.Report) {
	for _, ts := range report.Tuples {
		fmt.Fprintf(w, "%-36s %8d cycles", cell(ts.Benchmark, ts.System, ts.Schedule), ts.DrainCycles)
		if ts.Counts != nil {
			fmt.Fprintf(w, " (%+6.1f%%), %4d faults", ts.OverheadPct, ts.Counts.Injected())
		}
		fmt.Fprintf(w, ", %d points (%d partial)", ts.Points, ts.Partial)
		if ts.Counts != nil {
			fmt.Fprintf(w, ": %s", ts.Counts)
		}
		fmt.Fprintln(w)
	}
}

// cell names a tuple: benchmark/system, then /schedule under a fault plan.
func cell(bench, system, schedule string) string {
	if schedule == "" {
		return bench + "/" + system
	}
	return bench + "/" + system + "/" + schedule
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
