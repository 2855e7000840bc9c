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
// Experiments, in -exp all order (harness.Experiments): tableI, protocol,
// fig11, fig12, fig13, fig14, fig15, lists, agbsweep, evict, agborg, epochs,
// whisper, slccost, protocols.
//
// -protocol runs the figure/ablation experiments on a non-default coherence
// backend (slc, mesi, or tardis). The two experiments that compare backends
// set their own: slccost always runs SLC against MESI, and protocols always
// sweeps all three. With -protocols-json, protocols also writes the bake-off
// as the JSON document committed as results/protocols.json; selecting
// -protocols-json without the protocols experiment is a usage error.
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
	"slices"
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
	protocol := fs.String("protocol", "slc", "coherence protocol for the experiments that do not set their own (slccost and protocols do): slc, mesi, or tardis")
	protocolsJSON := fs.String("protocols-json", "", "with the protocols experiment, also write the bake-off JSON (the results/protocols.json format) to this path")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		fs.Usage()
		return 2
	}

	if fs.NArg() > 0 {
		return usageErr("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *scale <= 0 {
		return usageErr("-scale must be positive, got %g", *scale)
	}
	proto, err := machine.ParseCoherenceKind(*protocol)
	if err != nil {
		return usageErr("%v", err)
	}
	o := harness.Options{Scale: *scale, Seed: *seed, Workers: *workers, Protocol: proto}

	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			b = strings.TrimSpace(b)
			if _, ok := trace.ByName(b); !ok {
				return usageErr("unknown benchmark %q", b)
			}
			o.Benchmarks = append(o.Benchmarks, b)
		}
	}

	todo := harness.Experiments()
	if *exp != "all" {
		byName := map[string]harness.Experiment{}
		var names []string
		for _, e := range todo {
			byName[e.Name] = e
			names = append(names, e.Name)
		}
		todo = nil
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			e, ok := byName[name]
			if !ok {
				return usageErr("unknown experiment %q (known: %s, all)", name, strings.Join(names, ", "))
			}
			todo = append(todo, e)
		}
	}
	if *protocolsJSON != "" && !slices.ContainsFunc(todo, func(e harness.Experiment) bool { return e.Name == "protocols" }) {
		return usageErr("-protocols-json needs the protocols experiment in -exp")
	}

	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	for _, e := range todo {
		start := time.Now()
		res := e.Run(o)
		out := res.String()
		fmt.Fprintf(stdout, "==== %s (%.1fs) ====\n%s\n", e.Name, time.Since(start).Seconds(), out)
		if *artifacts != "" {
			path := filepath.Join(*artifacts, e.Name+".txt")
			if err := os.WriteFile(path, []byte(out+"\n"), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if bake, ok := res.(*harness.ProtocolBakeoffResult); ok && *protocolsJSON != "" {
			if err := bake.WriteBenchJSONFile(*protocolsJSON); err != nil {
				fmt.Fprintf(stderr, "protocols-json: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
