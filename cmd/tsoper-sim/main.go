// Command tsoper-sim runs one benchmark under one persistency system and
// prints the run's statistics.
//
// Usage:
//
//	tsoper-sim -bench radix -system tsoper -scale 0.5 -seed 42 [-stats]
//	tsoper-sim -program producer-consumer-ring -system tsoper
//	tsoper-sim -program my-workload.json -estimate
//	tsoper-sim -bench radix -trace-out radix.json -metrics-out radix-metrics.json
//	tsoper-sim -metrics-diff old-metrics.json new-metrics.json
//
// -program runs a workload-VM program instead of a benchmark profile: an
// embedded library name (see -list) or a JSON program file (PROGRAMS.md
// documents the wire format). -estimate prints the program's up-front cost
// estimate without simulating. -trace-out writes a Perfetto-compatible
// timeline (open it in ui.perfetto.dev); -metrics-out writes the unified
// metrics snapshot; -metrics-diff compares two snapshots without running
// anything. Each mode reads only the flags in its modeFlags row; setting
// any other flag is a usage error.
//
// Systems: baseline, hw-rp, bsp, bsp+slc, bsp+slc+agb, stw, tsoper.
// Protocols (-protocol): slc (default), mesi, tardis.
// Benchmarks: the 22 PARSEC 3.0 / Splash-3 stand-ins (see -list).
//
// Exit status: 0 clean, 1 runtime failure, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/telemetry"
	"repro/tsoper"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// modeFlags lists, for each mode, the flags it reads. run rejects any set
// flag outside the selected mode's row, so no mode ignores a flag silently.
var modeFlags = map[string][]string{
	"listing":       {"list"},
	"metrics diff":  {"metrics-diff"},
	"cost estimate": {"estimate", "program", "system"},
	"program run":   {"program", "system", "seed", "protocol", "stats", "trace-out", "metrics-out"},
	"benchmark run": {"bench", "system", "scale", "seed", "protocol", "stats", "trace-out", "metrics-out"},
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "radix", "benchmark name")
	progArg := fs.String("program", "", "run a workload program instead of a benchmark: a library name or a JSON file")
	estimate := fs.Bool("estimate", false, "print the program's cost estimate and exit without simulating (requires -program)")
	system := fs.String("system", "tsoper", "persistency system")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	seed := fs.Int64("seed", 42, "workload seed")
	list := fs.Bool("list", false, "list benchmarks, programs, and systems, then exit")
	full := fs.Bool("stats", false, "dump the full metric registry")
	traceOut := fs.String("trace-out", "", "write a Perfetto timeline trace (JSON) to this file")
	metricsOut := fs.String("metrics-out", "", "write the unified metrics snapshot (JSON) to this file")
	metricsDiff := fs.Bool("metrics-diff", false, "diff two metrics snapshots given as positional args, then exit")
	protoFlag := fs.String("protocol", "slc", "coherence protocol: slc, mesi, or tardis")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		fs.Usage()
		return 2
	}

	// Usage validation, mirroring tsoper-crash: malformed invocations exit
	// 2 before any work happens.
	if *estimate && *progArg == "" {
		return usageErr("-estimate requires -program")
	}
	mode := "benchmark run"
	switch {
	case *metricsDiff:
		mode = "metrics diff"
	case *list:
		mode = "listing"
	case *estimate:
		mode = "cost estimate"
	case *progArg != "":
		mode = "program run"
	}
	var stray string
	fs.Visit(func(f *flag.Flag) {
		if stray == "" && !slices.Contains(modeFlags[mode], f.Name) {
			stray = f.Name
		}
	})
	if stray != "" {
		return usageErr("-%s does not apply to the %s", stray, mode)
	}
	if *scale <= 0 {
		return usageErr("-scale must be positive, got %g", *scale)
	}
	proto, err := tsoper.ParseProtocol(*protoFlag)
	if err != nil {
		return usageErr("%v", err)
	}

	if *metricsDiff {
		if fs.NArg() != 2 {
			return usageErr("usage: tsoper-sim -metrics-diff OLD.json NEW.json")
		}
		if err := diffMetrics(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, p := range tsoper.Benchmarks() {
			input := "small"
			if p.LargeInput {
				input = "large"
			}
			fmt.Fprintf(stdout, "  %-14s (%s input, %d ops/core)\n", p.Name, input, p.OpsPerCore)
		}
		fmt.Fprintln(stdout, "programs (library):")
		for _, name := range tsoper.LibraryPrograms() {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		fmt.Fprintln(stdout, "systems:")
		for _, s := range tsoper.Systems() {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
		return 0
	}

	var kind tsoper.System
	found := false
	for _, s := range tsoper.Systems() {
		if s.String() == *system {
			kind, found = s, true
			break
		}
	}
	if !found {
		return usageErr("unknown system %q (try -list)", *system)
	}

	var prog *tsoper.Program
	var p tsoper.Profile
	if *progArg != "" {
		prog, err = tsoper.LoadProgram(*progArg)
		if err != nil {
			return usageErr("%v", err)
		}
	} else {
		var ok bool
		p, ok = tsoper.Benchmark(*bench)
		if !ok {
			return usageErr("unknown benchmark %q (try -list)", *bench)
		}
	}

	if *estimate {
		est, err := tsoper.EstimateProgram(prog, kind, tsoper.RunOptions{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %s\n", prog.Name, est)
		doc, err := json.MarshalIndent(est, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(doc))
		return 0
	}

	// A -trace-out flag attaches a recording telemetry bus to the machine.
	var sink *telemetry.TraceSink
	var cfgOverride *tsoper.Config
	if *traceOut != "" {
		sink = telemetry.NewTraceSink()
		cfg := tsoper.TableI(kind)
		cfg.Telemetry = telemetry.NewBus(sink)
		cfgOverride = &cfg
	}

	var r *tsoper.Results
	opts := tsoper.RunOptions{Scale: *scale, Seed: *seed, Protocol: proto, Config: cfgOverride}
	if prog != nil {
		r, err = tsoper.RunProgram(prog, kind, opts)
	} else {
		r, err = tsoper.Run(p, kind, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if sink != nil {
		if err := writeFile(*traceOut, sink.WriteJSON); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "trace: %d events -> %s (open in ui.perfetto.dev)\n", sink.Len(), *traceOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, r.Snapshot().WriteJSON); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics: %s\n", *metricsOut)
	}
	fmt.Fprintln(stdout, r)
	fmt.Fprintf(stdout, "  execution cycles     %d\n", r.Cycles)
	fmt.Fprintf(stdout, "  drain-complete cycle %d\n", r.DrainCycles)
	fmt.Fprintf(stdout, "  loads / stores       %d / %d (+%d syncs)\n", r.Loads, r.Stores, r.SyncOps)
	fmt.Fprintf(stdout, "  coherence writes     %d\n", r.CoherenceWrites)
	fmt.Fprintf(stdout, "  persist writes       %d (total incl. final flush: %d)\n", r.PersistWrites, r.TotalPersistWrites)
	fmt.Fprintf(stdout, "  NVM writes           %d\n", r.NVMWrites)
	if len(r.Groups) > 0 {
		fmt.Fprintf(stdout, "  atomic groups        %d (mean size %.2f, p90 %d, max %d)\n",
			len(r.Groups), r.AGSizes.Mean(), r.AGSizes.Percentile(90), r.AGSizes.Max())
	}
	fmt.Fprintf(stdout, "  list lengths         coherence %.2f, persist %.2f\n", r.CoherenceListLen, r.PersistListLen)
	fmt.Fprintf(stdout, "  evict buffer         max occupancy %d, stalls %d\n", r.EvictBufMax, r.EvictBufStalls)
	fmt.Fprintf(stdout, "  AGB stalls           %d\n", r.AGBStalls)
	if *full {
		fmt.Fprintln(stdout, "--- full metrics ---")
		fmt.Fprint(stdout, r.Set.String())
	}
	return 0
}

// writeFile creates path and streams render into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// diffMetrics prints the differences between two metrics snapshots.
func diffMetrics(stdout io.Writer, oldPath, newPath string) error {
	read := func(path string) (*telemetry.Snapshot, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return telemetry.ReadSnapshot(f)
	}
	oldS, err := read(oldPath)
	if err != nil {
		return err
	}
	newS, err := read(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s/%s -> %s/%s\n", oldS.System, oldS.Benchmark, newS.System, newS.Benchmark)
	fmt.Fprint(stdout, telemetry.FormatDiff(oldS.Diff(newS)))
	return nil
}
