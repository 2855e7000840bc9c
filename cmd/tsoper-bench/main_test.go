package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/litmus"
	"repro/internal/trace"
)

// TestMain lets the test binary stand in for the command when the tests
// make it start itself (setup probes, workload children).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for i, v := range []float64{10, 10.1, 9.9} {
		writeSyntheticReport(t, dir, fmt.Sprintf("parent-%d.json", i), v)
		writeSyntheticReport(t, dir, fmt.Sprintf("same-%d.json", i), v+0.05)
		writeSyntheticReport(t, dir, fmt.Sprintf("slower-%d.json", i), v*1.3)
	}
	parent, same, slower := filepath.Join(dir, "parent-*.json"), filepath.Join(dir, "same-*.json"), filepath.Join(dir, "slower-*.json")
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"unknown workload", []string{"-workload", "nope"}, 2},
		{"seed without value", []string{"-workload", "paper_sweep", "-seed"}, 2},
		{"seed not a number", []string{"-seed", "x"}, 2},
		{"trace not 0 or 1", []string{"-workload", "paper_sweep", "-trace", "2"}, 2},
		{"negative seconds", []string{"-seconds", "-1"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"positional argument", []string{"paper_sweep"}, 2},
		{"setup-only without workload", []string{"-setup-only"}, 2},
		{"compare needs two sides", []string{"-compare", parent}, 2},
		{"compare unreadable report", []string{"-compare", parent + "," + filepath.Join(dir, "missing.json")}, 1},
		{"compare regression", []string{"-compare", parent + "," + slower}, 1},
		{"compare unchanged", []string{"-compare", parent + "," + same}, 0},
		{"one run per side judged on its passes", []string{"-compare", filepath.Join(dir, "parent-0.json") + "," + filepath.Join(dir, "slower-0.json")}, 1},
		{"one run per side within the bound", []string{"-compare", filepath.Join(dir, "parent-0.json") + "," + filepath.Join(dir, "same-0.json")}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.argv, &stdout, &stderr); got != c.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

// writeSyntheticReport writes a one-workload report whose every end-to-end
// metric has the median value over three passes 1% apart.
func writeSyntheticReport(t *testing.T, dir, name string, value float64) {
	t.Helper()
	wr := &workloadReport{Correct: true, Digest: "d", EndToEnd: map[string]summary{}}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = summarize(d.Unit, []float64{0.99 * value, value, 1.01 * value})
	}
	if err := writeReport(filepath.Join(dir, name), &report{Workloads: map[string]*workloadReport{"paper_sweep": wr}}); err != nil {
		t.Fatal(err)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the command's own
// workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if strings.Join(doc.Command, " ") != "bash cmd/tsoper-bench/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "cmd/tsoper-bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloadInfo) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadInfo))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadInfo[i].name || w.Why != workloadInfo[i].why {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, workloadInfo[i].name, workloadInfo[i].why)
		}
	}
	if !sameDefs(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !sameDefs(doc.PerLayer, perLayer) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", doc.PerLayer, perLayer)
	}
	for _, d := range doc.EndToEnd {
		if d.Name != "setup_s" && d.Bound > bound(doc.EndToEnd, "setup_s") {
			t.Errorf("%s bound %g exceeds setup_s's; setup_s must have the largest", d.Name, d.Bound)
		}
	}
}

func sameDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func bound(defs []metricDef, name string) float64 {
	d, _ := defByName(defs, name)
	return d.Bound
}

// TestShortSmoke runs every workload at its tiny size, traced, and checks
// the report and the result line carry exactly the metrics BENCHMARK.json
// names.
func TestShortSmoke(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for _, info := range workloadInfo {
		t.Run(info.name, func(t *testing.T) {
			for _, traced := range []string{"0", "1"} {
				out := filepath.Join(t.TempDir(), "report.json")
				var stdout, stderr bytes.Buffer
				argv := []string{"-workload", info.name, "-short", "-seconds", "0", "-seed", "3", "-trace", traced, "-out", out}
				if code := run(argv, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				rep, err := readReport(out)
				if err != nil {
					t.Fatal(err)
				}
				wr := rep.Workloads[info.name]
				if wr == nil || !wr.Correct || wr.Attempted < 1 || wr.Failed != 0 || wr.Passes < 1 || wr.Inputs == "" {
					t.Fatalf("report section %+v", wr)
				}
				checkNames(t, "report end_to_end", keys(wr.EndToEnd), doc.EndToEnd)
				line := lastLine(t, stdout.String())
				want := doc.EndToEnd
				if traced == "1" {
					checkNames(t, "report per_layer", keys(wr.PerLayer), doc.PerLayer)
					want = doc.PerLayer
				} else if wr.PerLayer != nil {
					t.Errorf("-trace 0 report carries per-layer metrics")
				}
				checkNames(t, "result line", keys(line.Metrics), want)
				for name, m := range line.Metrics {
					if d, _ := defByName(want, name); m.Unit != d.Unit {
						t.Errorf("%s unit %q, want %q", name, m.Unit, d.Unit)
					}
				}
				if !line.Correct || line.Attempted != wr.Attempted || line.Failed != 0 {
					t.Errorf("result line %+v", line)
				}
			}
		})
	}
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func checkNames(t *testing.T, what string, got []string, want []metricDef) {
	t.Helper()
	seen := map[string]bool{}
	for _, g := range got {
		if _, ok := defByName(want, g); !ok {
			t.Errorf("%s: unnamed metric %q", what, g)
		}
		seen[g] = true
	}
	for _, d := range want {
		if !seen[d.Name] {
			t.Errorf("%s: missing metric %q", what, d.Name)
		}
	}
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(center float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = center * (1 + 0.002*float64(i%3-1))
		}
		return xs
	}
	// Each value is one run's median unless perPass marks them as the
	// per-pass samples of one run per side.
	cases := []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
		perPass        bool
	}{
		{"faster on every pair", wall, steady(10, 10), steady(8, 10), "improved", false},
		{"faster on every pass of one run per side", wall, steady(10, 21), steady(8, 21), "unchanged", true},
		{"faster but fewer than ten pairs", wall, steady(10, 9), steady(8, 9), "unchanged", false},
		{"within the bound", wall, steady(10, 10), steady(10.5, 10), "unchanged", false},
		{"slower beyond the bound", wall, steady(10, 10), steady(12, 10), "regressed", false},
		{"higher-is-better drop", rate, steady(100, 10), steady(80, 10), "regressed", false},
		{"higher-is-better gain", rate, steady(100, 10), steady(130, 10), "improved", false},
		{"spread wider than the bound", wall, []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, steady(10.2, 10), "unresolved", false},
		{"wide but slower on every sample", wall, []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, steady(20, 10), "regressed", false},
		{"wide and slower on most samples", wall, []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, []float64{10, 14, 11, 13, 12, 9, 15, 12, 11, 13}, "unresolved", false},
		{"wide but faster on every sample", wall, []float64{8, 12, 9, 11, 10}, steady(5, 5), "unchanged", false},
		{"one sample per side, worse beyond the bound", wall, []float64{10}, []float64{13}, "unresolved", false},
		{"one sample per side, within the bound", wall, []float64{10}, []float64{10.4}, "unchanged", false},
		{"few passes, slower beyond the bound", wall, []float64{9.9, 10, 10.1}, []float64{12.9, 13, 13.1}, "regressed", true},
		{"nine of ten wins without a shift beyond the parent's spread", wall,
			[]float64{10, 10.4, 9.6, 10, 10.4, 9.6, 10, 10.4, 9.6, 10}, []float64{9.9, 10.3, 9.5, 9.9, 10.3, 9.5, 9.9, 10.3, 9.5, 10.1}, "unchanged", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := min(len(c.parent), len(c.change))
			if c.perPass {
				runs = 1
			}
			if j := judge(c.def, c.parent, c.change, runs); j.verdict != c.want {
				t.Errorf("verdict %s (shift %.3f, wins %d/%d), want %s", j.verdict, j.shift, j.wins, j.pairs, c.want)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
	if p := percentile([]float64{5, 1, 3, 2, 4}, 50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
}

// TestReferenceDigests ties the committed digests to the repository's own
// artifacts: the paper sweep's to results/experiments_scale0.5.txt with
// the timings stripped, the litmus gate's to the wheel and fault-plan
// explorations in results/litmus.json.
func TestReferenceDigests(t *testing.T) {
	golden, err := os.ReadFile("../../results/experiments_scale0.5.txt")
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^==== (\S+) \([0-9.]+s\) ====$`)
	// paperEntries copies tsoper-experiments' -exp all order; the golden
	// file's headers are that order.
	var names []string
	for _, m := range header.FindAllSubmatch(golden, -1) {
		names = append(names, string(m[1]))
	}
	var want []string
	for _, e := range paperEntries {
		want = append(want, e.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("results/experiments_scale0.5.txt runs %v, paperEntries %v", names, want)
	}
	stripped := header.ReplaceAll(golden, []byte("==== $1 ===="))
	if got, want := sha256Hex(stripped), mustReference(t, "paper_sweep"); got != want {
		t.Errorf("paper_sweep reference %s, results/experiments_scale0.5.txt gives %s", want, got)
	}

	b, err := os.ReadFile("../../results/litmus.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep litmus.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	// Axes: wheel, heap, then one per fault preset, each over the corpus.
	corpus, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	n := len(corpus)
	if len(rep.Axes) != 4 || rep.Axes[0] != "wheel" || len(rep.Results) != 4*n {
		t.Fatalf("results/litmus.json axes %v with %d results", rep.Axes, len(rep.Results))
	}
	var all bytes.Buffer
	for i, r := range rep.Results {
		if i >= n && i < 2*n {
			continue // the heap axis
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(blob)
	}
	if got, want := sha256Hex(all.Bytes()), mustReference(t, "litmus_gate"); got != want {
		t.Errorf("litmus_gate reference %s, results/litmus.json gives %s", want, got)
	}
}

func mustReference(t *testing.T, name string) string {
	t.Helper()
	d, err := referenceDigest(name, referenceSeed, false)
	if err != nil || d == "" {
		t.Fatalf("no reference digest for %s: %v", name, err)
	}
	return d
}

func TestLayerShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	p, _ := trace.ByName("radix")
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		trace.Generate(p, 8, 1)
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range hostLayers {
		sum += shares[l]
		switch l {
		case "trace", "mem", "bench", "gc": // trace.Generate builds mem.Ops
		default:
			if shares[l] != 0 {
				t.Errorf("layer %s charged %.2f%% while only trace.Generate ran", l, shares[l])
			}
		}
	}
	if sum < 99.9 || sum > 100.1 || shares["trace"] == 0 {
		t.Errorf("shares sum %.2f, trace %.2f%%: %v", sum, shares["trace"], shares)
	}
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).RunUntil":       "sim",
		"repro/internal/coherence/slc.(*List).NodeOf": "coherence",
		"repro/internal/service/client.(*Client).Run": "service",
		"repro/internal/newpkg.F":                     "other",
		"main.run":                                    "bench",
		"runtime.mallocgc":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if _, err := layerShares([]byte("not gzip")); err == nil {
		t.Error("garbage profile parsed")
	}
}

// TestServiceJobMix pins the job list to tsoper-load's rule under the CI
// smoke flags (-dup 3, radix/fft/ocean_cp at scale 0.05, one program, all
// under TSOPER): every third job comes from the four-spec duplicate pool at
// the seed base minus one, the rest rotate through the templates with
// consecutive fresh seeds.
func TestServiceJobMix(t *testing.T) {
	w, err := newServiceJobs(0, false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	resubmissions, wantSeed := 0, int64(1000)
	for i, j := range w.jobs {
		kind := j.spec.Bench
		if j.spec.Program != nil {
			kind = j.spec.Program.Name
		}
		if j.spec.System != "tsoper" || (j.spec.Program == nil && j.spec.Scale != 0.05) {
			t.Fatalf("job %d: %+v", i, j.spec)
		}
		switch {
		case i%3 == 0:
			if j.spec.Seed != 999 {
				t.Fatalf("pool job %d has seed %d", i, j.spec.Seed)
			}
			if j.dupOf >= 0 {
				resubmissions++
				if j.dupOf >= i || w.jobs[j.dupOf].dupOf >= 0 || w.jobs[j.dupOf].spec.Bench != j.spec.Bench {
					t.Fatalf("job %d resubmits %d", i, j.dupOf)
				}
			}
		default:
			wantSeed++
			if j.dupOf >= 0 || j.spec.Seed != wantSeed {
				t.Fatalf("unique job %d: seed %d, resubmits %d", i, j.spec.Seed, j.dupOf)
			}
			kinds[kind]++
		}
	}
	if len(w.jobs) != 1000 || resubmissions != 330 || len(kinds) != 4 {
		t.Errorf("%d jobs, %d resubmissions, unique jobs by template %v", len(w.jobs), resubmissions, kinds)
	}
	for kind, n := range kinds {
		if n < 166 || n > 167 {
			t.Errorf("%d unique %s jobs, want an even share of 666", n, kind)
		}
	}
	w, err = newServiceJobs(7, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := newServiceJobs(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.inputs() != w.inputs() {
		t.Error("same seed, different inputs")
	}
	if other, _ := newServiceJobs(8, false); other.inputs() == w.inputs() {
		t.Error("different seeds, same inputs")
	}
}

// TestChecksCountFailures covers the checks that fail a run: a pass that
// does not reproduce its digest, and a resubmission answered with other
// bytes than its original.
func TestChecksCountFailures(t *testing.T) {
	first := &passResult{digest: "aa"}
	res := &passResult{digest: "bb"}
	checkDigest(res, "", []*passResult{first})
	if res.failed != 1 {
		t.Errorf("digest drift not counted: %+v", res)
	}
	res = &passResult{digest: "aa"}
	checkDigest(res, "cc", nil)
	if res.failed != 1 {
		t.Errorf("reference mismatch not counted: %+v", res)
	}

	w := &serviceJobs{jobs: []serviceJob{{dupOf: -1}, {dupOf: 0}}}
	lr := &loadResult{outcomes: []jobOutcome{{body: []byte("x")}, {body: []byte("y")}}}
	if got := w.check(lr); got.failed != 1 || got.ops != 2 {
		t.Errorf("duplicate mismatch: %+v", got)
	}
}

// TestSeedPicksInputs checks every workload's inputs are a function of the
// seed.
func TestSeedPicksInputs(t *testing.T) {
	for _, info := range workloadInfo {
		a, err := buildWorkload(info.name, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(info.name, 5, true)
		c, _ := buildWorkload(info.name, 6, true)
		if a.inputs() != b.inputs() || a.inputs() == c.inputs() {
			t.Errorf("%s: inputs %.8s %.8s (same seed) %.8s (other seed)", info.name, a.inputs(), b.inputs(), c.inputs())
		}
	}
}
