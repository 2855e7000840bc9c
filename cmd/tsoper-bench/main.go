// Command tsoper-bench is the repository's end-to-end benchmark. It times
// four workloads on the simulator's two clocks — host wall time and the
// simulated results the paper reports — checks every output, and
// attributes host time to layers from one traced pass per workload.
//
// Usage (from the repository root):
//
//	bash cmd/tsoper-bench/run.sh -seed 42 -out report.json
//	    every workload, each in its own child process: setup probes, timed
//	    untraced passes for -seconds, then one traced pass
//	bash cmd/tsoper-bench/run.sh -workload crash_campaign -seed 7 -trace 0
//	    one workload in this process; the last stdout line is a JSON result
//	bash cmd/tsoper-bench/run.sh -compare parent.json,change.json
//	    per-workload, per-metric verdicts between sets of reports
//
// Workloads: paper_sweep, crash_campaign, litmus_gate, service_jobs. See
// README.md for the metrics, their bounds and which layer moves which.
//
// Exit status: 0 clean, 1 a failed check, a runtime error or a regressed
// comparison, 2 usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started by tsoper-bench itself (a workload child
// or a setup probe); test binaries use it to act as the command.
const childEnv = "TSOPER_BENCH_CHILD"

// setupProbes is how many fresh processes time the set-up. Each takes tens
// of milliseconds, so the median needs many to hold still on a busy host.
const setupProbes = 21

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	short     bool
	setupOnly bool
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, len(workloadInfo))
	for i, w := range workloadInfo {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(names, ", ")+" (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", referenceSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "keep starting timed passes until this many seconds have passed (at least one pass)")
	traceFlag := fs.Int("trace", 1, "1: after the timed passes, run one traced pass for the per-layer metrics; 0: timed passes only")
	fs.StringVar(&o.out, "out", "", "write the JSON report to this path")
	fs.BoolVar(&o.short, "short", false, "tiny workload sizes for smoke tests (no reference digests)")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "with -workload: build the workload's inputs and exit (how setup_s is timed)")
	compare := fs.String("compare", "", "PARENT.json,CHANGE.json[,...]: compare reports (each item may be a glob, pooling its reports) and exit")
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
	if *compare != "" {
		return runCompare(strings.Split(*compare, ","), stdout, stderr)
	}
	if o.workload != "" && !knownWorkload(o.workload) {
		return usageErr("unknown workload %q (known: %s)", o.workload, strings.Join(names, ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return usageErr("-trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds < 0 {
		return usageErr("-seconds must not be negative, got %g", o.seconds)
	}
	if o.setupOnly {
		if o.workload == "" {
			return usageErr("-setup-only needs -workload")
		}
		if _, err := buildWorkload(o.workload, o.seed, o.short); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	return runOne(o, stdout, stderr)
}

// workloadReport is one workload's section of the report.
type workloadReport struct {
	Why       string             `json:"why"`
	Procs     int                `json:"gomaxprocs"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	ErrorRate float64            `json:"error_rate"`
	Passes    int                `json:"passes"`
	Inputs    string             `json:"input_digest"`
	Digest    string             `json:"digest"`
	Reference string             `json:"reference_digest,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// PerLayer holds the traced pass's metrics (absent with -trace 0).
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON document -out writes.
type report struct {
	Env       envStamp                   `json:"env"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runOne runs one workload in this process and prints its metrics, the
// last line being the JSON result line.
func runOne(o options, stdout, stderr io.Writer) int {
	wr, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	printWorkload(stdout, o.workload, wr)
	for _, p := range wr.Problems {
		fmt.Fprintf(stderr, "%s: %s\n", o.workload, p)
	}
	if o.out != "" {
		rep := &report{Env: stamp(o.seed), Seconds: o.seconds, Trace: o.trace,
			Workloads: map[string]*workloadReport{o.workload: wr}}
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line := resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	if o.trace {
		for k, v := range wr.PerLayer {
			line.Metrics[k] = v
		}
	} else {
		for k, s := range wr.EndToEnd {
			line.Metrics[k] = metricValue{Value: s.Value, Unit: s.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !wr.Correct {
		return 1
	}
	return 0
}

// resultLine is the one-line JSON result: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs one workload: set-up probes, timed untraced passes, then
// (with -trace 1) the traced pass.
func measure(o options) (*workloadReport, error) {
	setup, err := probeSetup(o)
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(o.workload, o.seed, o.short)
	if err != nil {
		return nil, err
	}
	ref, err := referenceDigest(o.workload, o.seed, o.short)
	if err != nil {
		return nil, err
	}
	wr := &workloadReport{Inputs: w.inputs(), Reference: ref, EndToEnd: map[string]summary{}}
	for _, info := range workloadInfo {
		if info.name == o.workload {
			wr.Why, wr.Procs = info.why, info.procs
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wr.Procs))

	var passes []*passResult
	var walls, allocs, rates []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < o.seconds {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res, err := w.pass()
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		checkDigest(res, ref, passes)
		passes = append(passes, res)
		wr.Attempted += res.ops
		wr.Failed += res.failed
		wr.Problems = append(wr.Problems, res.problems...)
		walls = append(walls, wall)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		rates = append(rates, float64(res.ops)/wall)
	}
	wr.Passes = len(passes)
	wr.Digest = passes[0].digest
	e2e := map[string][]float64{"setup_s": setup, "wall_s": walls, "ops_per_s": rates, "alloc_mb": allocs}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = summarize(d.Unit, e2e[d.Name])
	}

	if o.trace {
		pl, err := tracedPass(w, passes[0], wr.EndToEnd["wall_s"].Value, peakRSSMB())
		if err != nil {
			wr.Failed++
			wr.Problems = append(wr.Problems, "traced pass: "+err.Error())
		} else {
			wr.PerLayer = pl
		}
	}
	wr.Correct = wr.Failed == 0
	wr.ErrorRate = float64(wr.Failed) / float64(wr.Attempted)
	return wr, nil
}

// checkDigest requires every pass to reproduce the committed reference
// digest, or without one the first pass's digest.
func checkDigest(res *passResult, ref string, earlier []*passResult) {
	want := ref
	if want == "" && len(earlier) > 0 {
		want = earlier[0].digest
	}
	if want != "" && res.digest != want {
		res.fail("output digest %s does not match %s", res.digest, want)
	}
}

// tracedPass runs the workload's traced replica and assembles the full
// per-layer metric set: names the workload does not touch read 0. rss is
// the peak resident set of the timed passes.
func tracedPass(w workload, ref *passResult, untracedWall, rss float64) (map[string]metricValue, error) {
	runtime.GC()
	tr := newTracer()
	own, err := w.trace(tr, ref)
	if err != nil {
		return nil, err
	}
	shares, err := layerShares(tr.profile)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"trace_overhead_pct":  100 * (tr.wall.Seconds() - untracedWall) / untracedWall,
		"process.peak_rss_mb": rss,
	}
	for l, pct := range shares {
		vals["host."+l+"_pct"] = pct
	}
	for k, v := range own {
		if _, ok := defByName(perLayer, k); !ok {
			return nil, fmt.Errorf("workload reported unlisted per-layer metric %q", k)
		}
		vals[k] = v
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out, nil
}

// probeSetup times setupProbes fresh processes that each build the
// workload's inputs and exit: process start, package initialization and
// input construction, everything a run pays before its first pass.
func probeSetup(o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-setup-only"}
	if o.short {
		args = append(args, "-short")
	}
	var xs []float64
	for range setupProbes {
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return xs, nil
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil || ru.Maxrss == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printWorkload(w io.Writer, name string, wr *workloadReport) {
	status := "ok"
	if !wr.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "%s: %s, %d passes, %d/%d ops failed, digest %.16s\n",
		name, status, wr.Passes, wr.Failed, wr.Attempted, wr.Digest)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s q1 %.6g  q3 %.6g  n=%d\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	if wr.PerLayer != nil {
		for _, d := range perLayer {
			v := wr.PerLayer[d.Name]
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// runAll runs every workload in its own child process, so each keeps its
// own heap, GC pacing and peak RSS, and merges their reports.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "tsoper-bench-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rep := &report{Env: stamp(o.seed), Seconds: o.seconds, Trace: o.trace, Workloads: map[string]*workloadReport{}}
	failed := false
	for _, info := range workloadInfo {
		path := filepath.Join(tmp, info.name+".json")
		args := []string{"-workload", info.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", boolDigit(o.trace), "-out", path}
		if o.short {
			args = append(args, "-short")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", info.name, err)
			failed = true
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				continue
			}
		}
		child, err := readReport(path)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", info.name, err)
			failed = true
			continue
		}
		rep.Workloads[info.name] = child.Workloads[info.name]
	}
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading report: %w", err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("reading report %s: %w", path, err)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("report %s has no workloads", path)
	}
	return &rep, nil
}
