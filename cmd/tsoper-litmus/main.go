// Command tsoper-litmus runs the Px86 litmus-test conformance oracle: the
// generated corpus of persistency litmus tests driven through the machine
// across harvested crash points and interleaving perturbations, asserting
// soundness (every reached durable outcome is allowed), coverage (every
// allowed outcome is reached), and checker agreement — gated across both
// event schedulers (the timing wheel and the reference heap, whose results
// must be byte-identical) and runtime fault presets.
//
// Modes:
//
//	tsoper-litmus -corpus -json results/litmus.json
//	    the CI gate: full corpus x {wheel, heap} x fault presets, plus
//	    mutation testing of the oracle itself
//	tsoper-litmus -test mp -faults none
//	    one test on both schedulers, no fault presets
//	tsoper-litmus -corpus -protocol tardis -faults none
//	    the corpus gate on a non-default coherence backend
//	tsoper-litmus -test mp -fault torn-group -shrink
//	    inject a persistency fault and shrink the failing reproduction
//	tsoper-litmus -write-corpus internal/litmus/corpus
//	    regenerate the golden corpus files from the reference model
//	tsoper-litmus -list
//	    list the corpus tests
//
// Each mode reads only the flags in its modeFlags row; setting any other
// flag is a usage error.
//
// Exit status: 0 clean, 1 violations/surviving mutants, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/faultplan"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultPresets are the fault presets the corpus gate sweeps.
const defaultPresets = "nvm-transient,noc-lossy"

// modeFlags lists, for each mode, the flags it reads. run rejects any set
// flag outside the selected mode's row, so no mode ignores a flag silently.
var modeFlags = map[string][]string{
	"corpus listing":  {"list"},
	"corpus rewrite":  {"write-corpus"},
	"corpus gate":     {"corpus", "faults", "fault", "no-mutation", "shrink", "budget", "protocol", "json"},
	"single-test run": {"test", "faults", "fault", "shrink", "budget", "protocol", "json"},
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-litmus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		corpus      = fs.Bool("corpus", false, "run the full corpus gate (both schedulers x fault presets + mutation)")
		testName    = fs.String("test", "", "run a single corpus test by name")
		list        = fs.Bool("list", false, "list the corpus tests")
		faults      = fs.String("faults", defaultPresets, "comma-separated fault presets to gate under (\"none\" disables)")
		fault       = fs.String("fault", "", "inject a persistency CrashFault into every recovered state (mutation debugging)")
		noMutation  = fs.Bool("no-mutation", false, "skip the corpus gate's oracle mutation testing")
		shrink      = fs.Bool("shrink", false, "minimize a failing test before reporting it")
		budget      = fs.Int("budget", 0, "crash points per perturbation (0 = default)")
		protocol    = fs.String("protocol", "slc", "coherence protocol: slc, mesi, or tardis")
		jsonPath    = fs.String("json", "", "write the conformance report to this path as JSON")
		writeCorpus = fs.String("write-corpus", "", "regenerate the golden corpus files into this directory and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		fs.Usage()
		return 2
	}
	if *corpus && *testName != "" {
		fmt.Fprintln(stderr, "-corpus runs every corpus test and -test runs one; drop one of the two")
		fs.Usage()
		return 2
	}
	mode := "corpus gate"
	switch {
	case *writeCorpus != "":
		mode = "corpus rewrite"
	case *list:
		mode = "corpus listing"
	case *testName != "":
		mode = "single-test run"
	}
	var stray string
	fs.Visit(func(f *flag.Flag) {
		if stray == "" && !slices.Contains(modeFlags[mode], f.Name) {
			stray = f.Name
		}
	})
	if stray != "" {
		fmt.Fprintf(stderr, "-%s does not apply to the %s\n", stray, mode)
		fs.Usage()
		return 2
	}

	if *writeCorpus != "" {
		return writeCorpusFiles(*writeCorpus, stdout, stderr)
	}

	tests, err := litmus.Corpus()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *list {
		for _, t := range tests {
			fmt.Fprintf(stdout, "%-12s %d cores, %d vars, %2d allowed: %s\n",
				t.Name, len(t.Cores), len(t.Vars), len(t.Allowed), t.Doc)
		}
		return 0
	}

	var presets []faultplan.Spec
	if *faults != "none" && *faults != "" {
		for _, name := range strings.Split(*faults, ",") {
			name = strings.TrimSpace(name)
			p, ok := faultplan.Preset(name)
			if !ok {
				fmt.Fprintf(stderr, "unknown fault preset %q (presets: %s)\n",
					name, strings.Join(faultplan.PresetNames(), ", "))
				fs.Usage()
				return 2
			}
			presets = append(presets, p)
		}
	}
	proto, err := machine.ParseCoherenceKind(*protocol)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	crashFault := machine.FaultNone
	if *fault != "" {
		var ok bool
		if crashFault, ok = machine.ParseCrashFault(*fault); !ok {
			names := make([]string, 0, len(machine.Faults()))
			for _, f := range machine.Faults() {
				names = append(names, f.String())
			}
			fmt.Fprintf(stderr, "unknown crash fault %q (faults: %s)\n", *fault, strings.Join(names, ", "))
			fs.Usage()
			return 2
		}
	}

	if *testName != "" {
		t, ok := litmus.Find(tests, *testName)
		if !ok {
			fmt.Fprintf(stderr, "unknown corpus test %q (use -list)\n", *testName)
			fs.Usage()
			return 2
		}
		tests = tests[:0]
		tests = append(tests, t)
	} else if !*corpus {
		*corpus = true // no mode selected: run the corpus gate
	}

	rep := &litmus.Report{}
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
		failed = true
	}

	// Axis 1: full conformance under each scheduler, with cross-scheduler
	// byte-identity.
	schedulers := []sim.SchedulerKind{sim.SchedulerWheel, sim.SchedulerHeap}
	perScheduler := make([]map[string][]byte, len(schedulers))
	for si, kind := range schedulers {
		perScheduler[si] = map[string][]byte{}
		label := kind.String()
		rep.Axes = append(rep.Axes, label)
		for _, t := range tests {
			o := litmus.Default()
			o.Scheduler = kind
			o.Coherence = proto
			o.Fault = crashFault
			o.CrashBudget = *budget
			if crashFault != machine.FaultNone {
				o.Coverage = false
			}
			r := litmus.Explore(t, o)
			rep.Add(r)
			blob, err := json.Marshal(r)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			perScheduler[si][t.Name] = blob
			if err := r.Err(); err != nil {
				fail("[%s] %v", label, err)
				if *shrink {
					if st, sr := litmus.Shrink(t, o); st != nil {
						b, _ := json.Marshal(st)
						fmt.Fprintf(stderr, "  shrunk to %d violation(s): %s\n", sr.TotalViolations, b)
					}
				}
			} else {
				fmt.Fprintf(stdout, "[%s] %-12s conforms: %d outcomes over %d crash states\n",
					label, t.Name, len(r.Reached), r.Points)
			}
		}
	}
	for _, t := range tests {
		a, b := perScheduler[0][t.Name], perScheduler[1][t.Name]
		if string(a) != string(b) {
			fail("[scheduler-equivalence] %s: %s and %s explorations diverge:\n  %s\n  %s",
				t.Name, schedulers[0], schedulers[1], a, b)
		}
	}

	// Axis 2: soundness + checker agreement under runtime fault presets
	// (coverage waived: injected failures legitimately narrow reachability).
	for i := range presets {
		p := presets[i]
		label := "faults:" + p.Name
		rep.Axes = append(rep.Axes, label)
		for _, t := range tests {
			o := litmus.Default()
			o.Scheduler = sim.SchedulerWheel
			o.Coherence = proto
			o.Faults = &p
			o.Fault = crashFault
			o.Coverage = false
			o.CrashBudget = *budget
			r := litmus.Explore(t, o)
			rep.Add(r)
			if err := r.Err(); err != nil {
				fail("[%s] %v", label, err)
			} else {
				fmt.Fprintf(stdout, "[%s] %-12s sound: %d outcomes over %d crash states\n",
					label, t.Name, len(r.Reached), r.Points)
			}
		}
	}

	// Axis 3: oracle mutation testing — every injectable persistency fault
	// must be killed by some corpus test.
	if *corpus && !*noMutation {
		kills, err := litmus.MutationKills(tests, litmus.Options{
			System: machine.TSOPER, CrashBudget: *budget,
		})
		rep.AddKills(kills)
		for _, k := range kills {
			status := "killed"
			if !k.Killed {
				status = "SURVIVED"
			}
			fmt.Fprintf(stdout, "mutant %-18s -> %s by %-12s (%s) %s\n",
				k.Fault, status, k.Test, k.Mode, k.Violation)
		}
		if err != nil {
			fail("%v", err)
		}
	}

	fmt.Fprintln(stdout, rep.Summary())
	if *jsonPath != "" {
		if err := rep.WriteJSONFile(*jsonPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeCorpusFiles regenerates the golden corpus from the reference model.
func writeCorpusFiles(dir string, stdout, stderr io.Writer) int {
	tests, err := litmus.Generate()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	old, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	for i, t := range tests {
		data, err := litmus.MarshalIndentTest(t)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		name := litmus.CorpusFileName(i, t.Name)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d allowed, %d forbidden)\n", name, len(t.Allowed), len(t.Forbidden))
	}
	return 0
}
