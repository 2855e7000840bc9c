package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestExitCodes pins the CLI contract: 0 clean, 1 runtime failure, 2 usage.
func TestExitCodes(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "no-such-dir", "p.json")
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
		{name: "unknown experiment", argv: []string{"-exp", "fig99"}, want: 2, stderr: "unknown experiment"},
		{name: "unknown benchmark", argv: []string{"-exp", "fig11", "-bench", "doom"}, want: 2, stderr: "unknown benchmark"},
		{name: "tableI only", argv: []string{"-exp", "tableI"}, want: 0, stdout: "==== tableI"},
		{name: "stray argument", argv: []string{"-exp", "tableI", "stray"}, want: 2, stderr: "unexpected arguments: stray"},
		{
			name: "protocols-json without protocols",
			argv: []string{"-exp", "tableI", "-protocols-json", filepath.Join(t.TempDir(), "p.json")},
			want: 2, stderr: "-protocols-json",
		},
		// Retired flags: each paired with -exp tableI, which exits 0 on its own.
		{name: "retired scheduler flag", argv: []string{"-scheduler", "heap", "-exp", "tableI"}, want: 2, stderr: "not defined: -scheduler"},
		{name: "retired serial flag", argv: []string{"-serial", "-exp", "tableI"}, want: 2, stderr: "not defined: -serial"},
		{
			name: "unwritable protocols-json",
			argv: []string{"-exp", "protocols", "-scale", "0.02", "-bench", "radix", "-protocols-json", unwritable},
			want: 1, stderr: "protocols-json:", stdout: "==== protocols",
		},
		{
			name: "small fig11 run",
			argv: []string{"-exp", "fig11", "-bench", "radix", "-scale", "0.02"},
			want: 0, slow: true, stdout: "==== fig11",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("runs real simulations")
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

// TestArtifacts checks -artifacts writes one file per experiment.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-exp", "tableI,protocol", "-artifacts", dir}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", got, stderr.String())
	}
	for _, name := range []string{"tableI.txt", "protocol.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
		if len(b) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
}

// TestExperimentsMatchReference pins harness.Experiments to the -exp all
// artifact: its names, in order, are the artifact's section headers.
func TestExperimentsMatchReference(t *testing.T) {
	ref, err := os.ReadFile("../../results/experiments_scale0.5.txt")
	if err != nil {
		t.Fatal(err)
	}
	var headers []string
	for _, m := range regexp.MustCompile(`(?m)^==== (\S+) \([0-9.]+s\) ====$`).FindAllSubmatch(ref, -1) {
		headers = append(headers, string(m[1]))
	}
	var names []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
	}
	if !slices.Equal(names, headers) {
		t.Fatalf("harness.Experiments() = %v, results/experiments_scale0.5.txt runs %v", names, headers)
	}
}
