package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the CLI contract: 0 clean, 1 runtime failure, 2 usage.
func TestExitCodes(t *testing.T) {
	// Paths for the cases that name an output: a usage error must exit
	// before writing anything.
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	cases := []struct {
		name   string
		argv   []string
		want   int
		slow   bool
		stderr string
		stdout string
	}{
		{name: "bad flag", argv: []string{"-nonsense"}, want: 2},
		{name: "non-positive scale", argv: []string{"-scale", "0"}, want: 2, stderr: "-scale must be positive"},
		{name: "unknown protocol", argv: []string{"-protocol", "dragon"}, want: 2, stderr: "unknown coherence protocol"},
		{name: "unknown system", argv: []string{"-system", "magic"}, want: 2, stderr: "unknown system"},
		{name: "unknown benchmark", argv: []string{"-bench", "doom"}, want: 2, stderr: "unknown benchmark"},
		{name: "unknown program", argv: []string{"-program", "no-such-program"}, want: 2, stderr: "neither a library program"},
		{name: "estimate without program", argv: []string{"-estimate"}, want: 2, stderr: "-estimate requires -program"},
		{name: "metrics-diff arity", argv: []string{"-metrics-diff", "only-one.json"}, want: 2, stderr: "OLD.json NEW.json"},
		{name: "metrics-diff missing files", argv: []string{"-metrics-diff", "does-not-exist.json", "nor-this.json"}, want: 1},
		{name: "list", argv: []string{"-list"}, want: 0, stdout: "producer-consumer-ring"},
		{name: "list with stray argument", argv: []string{"-list", "stray"}, want: 2, stderr: "unexpected arguments: stray"},
		{name: "bench run with stray argument", argv: []string{"-bench", "radix", "-scale", "0.02", "stray"}, want: 2, stderr: "unexpected arguments: stray"},
		// Retired flags: each paired with -list, which exits 0 on its own.
		{name: "retired scheduler flag", argv: []string{"-scheduler", "heap", "-list"}, want: 2, stderr: "not defined: -scheduler"},
		{name: "retired save-trace flag", argv: []string{"-save-trace", "x", "-list"}, want: 2, stderr: "not defined: -save-trace"},
		{name: "retired load-trace flag", argv: []string{"-load-trace", "x", "-list"}, want: 2, stderr: "not defined: -load-trace"},
		{name: "retired checkpoint-every flag", argv: []string{"-checkpoint-every", "5000", "-list"}, want: 2, stderr: "not defined: -checkpoint-every"},
		{name: "retired checkpoint-out flag", argv: []string{"-checkpoint-out", "x.ckpt", "-list"}, want: 2, stderr: "not defined: -checkpoint-out"},
		{name: "retired resume flag", argv: []string{"-resume", "x.ckpt", "-list"}, want: 2, stderr: "not defined: -resume"},
		// Each mode rejects the flags it does not read (modeFlags).
		{name: "program with scale", argv: []string{"-program", "producer-consumer-ring", "-scale", "0.1"}, want: 2, stderr: "-scale does not apply to the program run"},
		{name: "program with bench", argv: []string{"-bench", "fft", "-program", "producer-consumer-ring"}, want: 2, stderr: "-bench does not apply to the program run"},
		{
			name: "estimate with run flags",
			argv: []string{"-program", "producer-consumer-ring", "-estimate", "-seed", "7", "-protocol", "tardis", "-metrics-out", m, "-trace-out", tr, "-stats"},
			want: 2, stderr: "does not apply to the cost estimate",
		},
		{name: "list with bench and system", argv: []string{"-list", "-bench", "nonsense", "-system", "nonsense"}, want: 2, stderr: "-bench does not apply to the listing"},
		{name: "estimate library program", argv: []string{"-program", "producer-consumer-ring", "-estimate"}, want: 0, stdout: "ops"},
		{
			name: "clean bench run",
			argv: []string{"-bench", "radix", "-system", "tsoper", "-scale", "0.02"},
			want: 0, slow: true, stdout: "execution cycles",
		},
		{
			name: "clean program run",
			argv: []string{"-program", "producer-consumer-ring", "-system", "tsoper"},
			want: 0, slow: true, stdout: "execution cycles",
		},
		{
			name: "clean tardis run",
			argv: []string{"-bench", "radix", "-system", "tsoper", "-scale", "0.02", "-protocol", "tardis"},
			want: 0, slow: true, stdout: "execution cycles",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("runs a real simulation")
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
			if tc.stdout != "" && !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not mention %q", stdout.String(), tc.stdout)
			}
		})
	}
}

// TestProgramFromFile runs a program loaded from disk rather than the
// embedded library, covering the file branch of -program resolution.
func TestProgramFromFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	doc := `{
  "version": 1,
  "name": "from-file",
  "cores": [
    {"instrs": [{"op": "store_burst", "count": 64}, {"op": "epoch"}]},
    {"instrs": [{"op": "load_scan", "count": 64}]}
  ]
}`
	path := filepath.Join(t.TempDir(), "prog.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-program", path, "-system", "tsoper"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "execution cycles") {
		t.Errorf("stdout missing run summary: %s", stdout.String())
	}
}
