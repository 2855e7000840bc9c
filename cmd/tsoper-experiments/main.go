// Command tsoper-experiments regenerates the paper's evaluation (§V): every
// figure, the Table I configuration, the protocol-complexity comparison,
// and the ablation sweeps.
//
// Usage:
//
//	tsoper-experiments -exp all -scale 0.5
//	tsoper-experiments -exp fig11,fig13 -bench radix,ocean_cp
//	tsoper-experiments -exp fig11 -workers 4 -artifacts results
//
// Experiments: tableI, protocol, fig11, fig12, fig13, fig14, fig15, lists,
// agbsweep, evict, agborg, epochs, whisper, slccost, protocols, all.
//
// -protocol runs the figure/ablation experiments on a non-default coherence
// backend (slc, mesi, or tardis); the protocols experiment always sweeps all
// three and, with -protocols-json, writes the bake-off as a benchjson-style
// document (CI publishes results/protocols.json).
//
// -artifacts DIR additionally writes each experiment's text output to
// DIR/<exp>.txt so figure data lands in versionable files.
//
// Exit status: 0 clean, 1 runtime failure, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment list")
	scale := fs.Float64("scale", 0.5, "workload scale factor (> 0)")
	seed := fs.Int64("seed", 42, "workload seed")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all 22)")
	workers := fs.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS; output does not depend on it)")
	artifacts := fs.String("artifacts", "", "also write each experiment's output to this directory")
	protocol := fs.String("protocol", "slc", "coherence protocol for the figure/ablation experiments: slc, mesi, or tardis")
	protocolsJSON := fs.String("protocols-json", "", "with -exp protocols, also write the bake-off as benchjson-style JSON to this path")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		fs.Usage()
		return 2
	}

	if *scale <= 0 {
		return usageErr("-scale must be positive, got %g", *scale)
	}
	proto, err := machine.ParseCoherenceKind(*protocol)
	if err != nil {
		return usageErr("%v", err)
	}
	o := harness.Options{Scale: *scale, Seed: *seed, Workers: *workers, Protocol: proto}

	// writeErr records a failed -protocols-json write; the run still prints
	// the bake-off, then exits 1.
	var writeErr error
	known := map[string]func(harness.Options) string{
		"tableI":   func(harness.Options) string { return harness.TableIText() },
		"protocol": func(harness.Options) string { return harness.ProtocolComplexityText() },
		"fig11":    func(o harness.Options) string { return harness.Figure11(o).String() },
		"fig12":    func(o harness.Options) string { return harness.Figure12(o).String() },
		"fig13":    func(o harness.Options) string { return harness.Figure13(o).String() },
		"fig14":    func(o harness.Options) string { return harness.Figure14(o).String() },
		"fig15":    func(o harness.Options) string { return harness.Figure15(o).String() },
		"lists":    func(o harness.Options) string { return harness.Lists(o).String() },
		"agbsweep": func(o harness.Options) string { return harness.AGBSweep(o).String() },
		"evict":    func(o harness.Options) string { return harness.EvictSweep(o).String() },
		"agborg":   func(o harness.Options) string { return harness.AGBOrganizations(o).String() },
		"epochs":   func(o harness.Options) string { return harness.BSPEpochSweep(o).String() },
		"whisper":  func(o harness.Options) string { return harness.Whisper(o).String() },
		"slccost":  func(o harness.Options) string { return harness.SLCOverhead(o).String() },
		"protocols": func(o harness.Options) string {
			bake := harness.ProtocolBakeoff(o)
			if *protocolsJSON != "" {
				if err := bake.WriteBenchJSONFile(*protocolsJSON); err != nil {
					writeErr = fmt.Errorf("protocols-json: %w", err)
				}
			}
			return bake.String()
		},
	}
	order := []string{"tableI", "protocol", "fig11", "fig12", "fig13", "fig14", "fig15",
		"lists", "agbsweep", "evict", "agborg", "epochs", "whisper", "slccost", "protocols"}

	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			b = strings.TrimSpace(b)
			if _, ok := trace.ByName(b); !ok {
				return usageErr("unknown benchmark %q", b)
			}
			o.Benchmarks = append(o.Benchmarks, b)
		}
	}

	var todo []string
	if *exp == "all" {
		todo = order
	} else {
		for _, e := range strings.Split(*exp, ",") {
			e = strings.TrimSpace(e)
			if _, ok := known[e]; !ok {
				return usageErr("unknown experiment %q (known: %s, all)", e, strings.Join(order, ", "))
			}
			todo = append(todo, e)
		}
	}

	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	for _, e := range todo {
		start := time.Now()
		out := known[e](o)
		fmt.Fprintf(stdout, "==== %s (%.1fs) ====\n%s\n", e, time.Since(start).Seconds(), out)
		if *artifacts != "" {
			path := filepath.Join(*artifacts, e+".txt")
			if err := os.WriteFile(path, []byte(out+"\n"), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if writeErr != nil {
			fmt.Fprintln(stderr, writeErr)
			return 1
		}
	}
	return 0
}
