package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/litmus"
)

// TestExitCodes pins the CLI contract: 0 clean, 1 conformance violations or
// surviving mutants, 2 usage errors.
func TestExitCodes(t *testing.T) {
	// Paths for the cases that name an output: a usage error must exit
	// before writing anything.
	dir := t.TempDir()
	x, y := filepath.Join(dir, "x.json"), filepath.Join(dir, "y.json")
	cases := []struct {
		name   string
		argv   []string
		want   int
		slow   bool
		stderr string
	}{
		{name: "bad flag", argv: []string{"-nonsense"}, want: 2},
		{name: "stray arguments", argv: []string{"stray"}, want: 2, stderr: "unexpected arguments"},
		{name: "unknown preset", argv: []string{"-faults", "blizzard"}, want: 2, stderr: "unknown fault preset"},
		{name: "unknown protocol", argv: []string{"-protocol", "dragon"}, want: 2, stderr: "unknown coherence protocol"},
		{name: "unknown crash fault", argv: []string{"-fault", "gremlin"}, want: 2, stderr: "unknown crash fault"},
		{name: "unknown test", argv: []string{"-test", "zz"}, want: 2, stderr: "unknown corpus test"},
		{name: "corpus with test", argv: []string{"-corpus", "-test", "mp"}, want: 2, stderr: "drop one of the two"},
		{name: "list", argv: []string{"-list"}, want: 0},
		// Retired flags, paired with -list, which exits 0 on its own.
		{name: "retired scheduler flag", argv: []string{"-scheduler", "both", "-list"}, want: 2, stderr: "not defined: -scheduler"},
		{name: "retired mutation flag", argv: []string{"-mutation", "-list"}, want: 2, stderr: "not defined: -mutation"},
		{name: "retired budget flag", argv: []string{"-budget", "5", "-list"}, want: 2, stderr: "not defined: -budget"},
		// Each mode rejects the flags it does not read (modeFlags).
		{name: "list with test", argv: []string{"-list", "-test", "mp"}, want: 2, stderr: "-test does not apply to the corpus listing"},
		{name: "list with fault and json", argv: []string{"-list", "-fault", "torn-group", "-json", x}, want: 2, stderr: "does not apply to the corpus listing"},
		{name: "list with faults", argv: []string{"-list", "-faults", "blizzard"}, want: 2, stderr: "-faults does not apply to the corpus listing"},
		{name: "write-corpus with test and json", argv: []string{"-write-corpus", filepath.Join(dir, "corpus"), "-test", "mp", "-json", y}, want: 2, stderr: "does not apply to the corpus rewrite"},
		{name: "test with no-mutation", argv: []string{"-test", "mp", "-no-mutation", "-faults", "none"}, want: 2, stderr: "-no-mutation does not apply to the single-test run"},
		{
			name: "single test conforms",
			argv: []string{"-test", "mp", "-faults", "none"},
			want: 0, slow: true,
		},
		{
			name: "single test conforms on tardis",
			argv: []string{"-test", "mp", "-faults", "none", "-protocol", "tardis"},
			want: 0, slow: true,
		},
		{
			name: "injected fault fails",
			argv: []string{"-test", "epoch-atomic", "-faults", "none", "-fault", "torn-group"},
			want: 1, slow: true, stderr: "violation",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("runs a real exploration")
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

// TestJSONReport checks the -json artifact parses back into a report with
// the expected tallies.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real exploration")
	}
	path := filepath.Join(t.TempDir(), "litmus.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-test", "sb", "-faults", "none", "-json", path},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep litmus.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tests != 2 || rep.Conforming != 2 || rep.Violating != 0 {
		t.Errorf("report tallies = %d/%d/%d, want 2 explorations all conforming",
			rep.Tests, rep.Conforming, rep.Violating)
	}
	if len(rep.Axes) != 2 {
		t.Errorf("axes = %v, want wheel and heap", rep.Axes)
	}
}

// TestWriteCorpusRegeneratesGoldenFiles round-trips the generator through
// -write-corpus into a scratch directory.
func TestWriteCorpusRegeneratesGoldenFiles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-corpus", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := litmus.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("wrote %d files, want %d", len(files), len(want))
	}
}
