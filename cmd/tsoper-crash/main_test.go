package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the CLI contract: 0 clean, 1 findings, 2 usage.
func TestExitCodes(t *testing.T) {
	// Paths for the cases that name an output file: a usage error must exit
	// before writing it.
	dir := t.TempDir()
	x, y := filepath.Join(dir, "x.json"), filepath.Join(dir, "y.json")
	// sweep1 appends flags to a 1-point sweep that exits 0 on its own.
	sweep1 := func(flags ...string) []string {
		return append([]string{"-bench", "radix", "-system", "tsoper", "-crashes", "1", "-scale", "0.05"}, flags...)
	}
	cases := []struct {
		name   string
		argv   []string
		want   int
		slow   bool
		stderr string
	}{
		{name: "bad flag", argv: []string{"-nonsense"}, want: 2},
		{name: "non-positive crashes", argv: []string{"-crashes", "0"}, want: 2, stderr: "-crashes must be positive"},
		{name: "non-positive scale", argv: []string{"-scale", "-1"}, want: 2, stderr: "-scale must be positive"},
		{name: "unknown campaign", argv: []string{"-campaign", "lunch"}, want: 2, stderr: "unknown campaign"},
		{name: "unknown benchmark", argv: []string{"-bench", "doom"}, want: 2, stderr: "unknown benchmark"},
		{name: "unknown protocol", argv: []string{"-protocol", "dragon"}, want: 2, stderr: "unknown coherence protocol"},
		{name: "unknown program", argv: []string{"-program", "no-such-program"}, want: 2, stderr: "neither a library program"},
		{name: "program with campaign", argv: []string{"-program", "radix", "-campaign", "smoke"}, want: 2, stderr: "-program does not apply to the smoke campaign"},
		{name: "non-strict system", argv: []string{"-system", "bsp"}, want: 2, stderr: "strict system"},
		// Each mode rejects the flags it does not read (modeFlags).
		{name: "smoke with scale", argv: []string{"-campaign", "smoke", "-scale", "0.1", "-crashes", "2", "-json", y}, want: 2, stderr: "-scale does not apply to the smoke campaign"},
		{name: "mutation with scale", argv: []string{"-campaign", "mutation", "-scale", "0.1"}, want: 2, stderr: "-scale does not apply to the mutation campaign"},
		{name: "mutation with protocol", argv: []string{"-campaign", "mutation", "-protocol", "tardis"}, want: 2, stderr: "-protocol does not apply to the mutation campaign"},
		{name: "program with scale", argv: []string{"-program", "producer-consumer-ring", "-scale", "0.1"}, want: 2, stderr: "-scale does not apply to the program sweep"},
		// Resilience mode: -faults or -campaign resilience.
		{name: "unknown fault preset", argv: []string{"-faults", "blizzard"}, want: 2, stderr: "unknown fault preset"},
		{name: "faults with program", argv: []string{"-faults", "storm", "-program", "producer-consumer-ring"}, want: 2, stderr: "-program does not apply"},
		{name: "faults with protocol", argv: []string{"-faults", "storm", "-protocol", "slc"}, want: 2, stderr: "-protocol does not apply"},
		{name: "faults with shrink", argv: []string{"-faults", "storm", "-shrink"}, want: 2, stderr: "-shrink does not apply"},
		{name: "faults with campaign", argv: []string{"-faults", "storm", "-campaign", "smoke"}, want: 2, stderr: "-faults does not apply to the smoke campaign"},
		{name: "resilience campaign with faults", argv: []string{"-campaign", "resilience", "-faults", "storm"}, want: 2, stderr: "-faults does not apply to the resilience campaign"},
		{name: "resilience campaign with protocol", argv: []string{"-campaign", "resilience", "-protocol", "tardis"}, want: 2, stderr: "-protocol does not apply"},
		{name: "resilience non-positive crashes", argv: []string{"-faults", "storm", "-crashes", "0"}, want: 2, stderr: "-crashes must be positive"},
		{name: "resilience non-positive scale", argv: []string{"-faults", "storm", "-scale", "0"}, want: 2, stderr: "-scale must be positive"},
		{name: "resilience unknown benchmark", argv: []string{"-faults", "storm", "-bench", "doom"}, want: 2, stderr: "unknown benchmark"},
		{name: "resilience non-strict system", argv: []string{"-faults", "storm", "-system", "hwrp"}, want: 2, stderr: "strict system"},
		{name: "resilience unknown campaign", argv: []string{"-faults", "storm", "-campaign", "lunch"}, want: 2, stderr: `unknown campaign "lunch"`},
		// The retired tsoper-faults point budget; resilience mode takes -crashes.
		{name: "resilience bad flag", argv: []string{"-faults", "storm", "-points", "5"}, want: 2, stderr: "not defined: -points"},
		{name: "stray argument", argv: []string{"-campaign", "mutation", "-crashes", "1", "stray"}, want: 2, stderr: "unexpected arguments: stray"},
		// Retired flags.
		{name: "retired full-replay flag", argv: sweep1("-full-replay"), want: 2, stderr: "not defined: -full-replay"},
		{name: "retired strategy flag", argv: sweep1("-strategy", "events"), want: 2, stderr: "not defined: -strategy"},
		{name: "retired first flag", argv: sweep1("-first", "500"), want: 2, stderr: "not defined: -first"},
		{name: "retired step flag", argv: sweep1("-step", "1500"), want: 2, stderr: "not defined: -step"},
		{name: "retired compare-out flag", argv: sweep1("-compare-out", x), want: 2, stderr: "not defined: -compare-out"},
		{name: "retired min-speedup flag", argv: sweep1("-min-speedup", "2"), want: 2, stderr: "not defined: -min-speedup"},
		{
			name: "clean sweep",
			argv: []string{"-bench", "radix", "-system", "tsoper", "-crashes", "2", "-scale", "0.05"},
			want: 0, slow: true,
		},
		{
			name: "clean program sweep",
			argv: []string{"-program", "producer-consumer-ring", "-system", "tsoper", "-crashes", "2"},
			want: 0, slow: true,
		},
		{
			name: "clean tardis sweep",
			argv: []string{"-bench", "radix", "-system", "tsoper", "-crashes", "2", "-scale", "0.05", "-protocol", "tardis"},
			want: 0, slow: true,
		},
		{
			name: "clean resilience cell",
			argv: []string{"-bench", "radix", "-system", "tsoper", "-faults", "nvm-transient", "-crashes", "1", "-scale", "0.05"},
			want: 0, slow: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("runs a real campaign")
			}
			t.Parallel()
			var stdout, stderr bytes.Buffer
			got := run(tc.argv, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.argv, got, tc.want, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestMutationCountsInjectionsRun pins the mutation report's injection count
// to the crash points the faults actually tried: Mutate stops each fault at
// its first applicable point, so points x faults over-reports.
func TestMutationCountsInjectionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	out := filepath.Join(t.TempDir(), "mutation.json")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-campaign", "mutation", "-crashes", "20", "-json", out}, &stdout, &stderr); got != 0 {
		t.Fatalf("mutation campaign = %d\nstderr: %s", got, stderr.String())
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Injections int `json:"injections"`
		Kills      []struct {
			Tried int `json:"tried"`
		} `json:"kills"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	tried := 0
	for _, k := range report.Kills {
		tried += k.Tried
	}
	if len(report.Kills) == 0 || report.Injections != tried {
		t.Fatalf("report counts %d injections over %d kills, but the faults tried %d crash points",
			report.Injections, len(report.Kills), tried)
	}
}

// TestResilienceDefaults pins the resilience mode's defaults: without
// -crashes, each cell takes 10 crash points, and a -faults grid is the
// "sweep" report over -bench x -system.
func TestResilienceDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	out := filepath.Join(t.TempDir(), "faults.json")
	var stdout, stderr bytes.Buffer
	argv := []string{"-faults", "nvm-transient,noc-lossy", "-scale", "0.05", "-json", out}
	if got := run(argv, &stdout, &stderr); got != 0 {
		t.Fatalf("resilience sweep = %d\nstderr: %s", got, stderr.String())
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Name        string  `json:"name"`
		Scale       float64 `json:"scale"`
		CrashPoints int     `json:"crash_points"`
		Cells       []struct {
			Benchmark string `json:"benchmark"`
			System    string `json:"system"`
			Schedule  string `json:"schedule"`
			Points    int    `json:"points"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Name != "sweep" || report.Scale != 0.05 || report.CrashPoints != 20 || len(report.Cells) != 2 {
		t.Fatalf("report %+v, want sweep at scale 0.05 with 2 cells of 10 points", report)
	}
	for i, want := range []string{"nvm-transient", "noc-lossy"} {
		c := report.Cells[i]
		if c.Benchmark != "radix" || c.System != "tsoper" || c.Schedule != want || c.Points != 10 {
			t.Errorf("cell %d = %+v, want radix/tsoper under %s with 10 points", i, c, want)
		}
	}
}
