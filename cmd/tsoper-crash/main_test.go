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
	cases := []struct {
		name   string
		argv   []string
		want   int
		slow   bool
		stderr string
	}{
		{name: "bad flag", argv: []string{"-nonsense"}, want: 2},
		{name: "non-positive crashes", argv: []string{"-crashes", "0"}, want: 2, stderr: "-crashes must be positive"},
		{name: "zero step", argv: []string{"-step", "0"}, want: 2, stderr: "-step must be positive"},
		{name: "zero first", argv: []string{"-first", "0"}, want: 2, stderr: "-first must be positive"},
		{name: "non-positive scale", argv: []string{"-scale", "-1"}, want: 2, stderr: "-scale must be positive"},
		{name: "unknown strategy", argv: []string{"-strategy", "psychic"}, want: 2, stderr: "unknown strategy"},
		{name: "unknown campaign", argv: []string{"-campaign", "lunch"}, want: 2, stderr: "unknown campaign"},
		{name: "unknown benchmark", argv: []string{"-bench", "doom"}, want: 2, stderr: "unknown benchmark"},
		{name: "unknown protocol", argv: []string{"-protocol", "dragon"}, want: 2, stderr: "unknown coherence protocol"},
		{name: "unknown program", argv: []string{"-program", "no-such-program"}, want: 2, stderr: "neither a library program"},
		{name: "program with campaign", argv: []string{"-program", "radix", "-campaign", "smoke"}, want: 2, stderr: "sweep mode"},
		{name: "non-strict system", argv: []string{"-system", "bsp"}, want: 2, stderr: "strict system"},
		{name: "compare with campaign", argv: []string{"-compare-out", "x.json", "-campaign", "smoke"}, want: 2, stderr: "its own mode"},
		// Retired flag, paired with a 1-point sweep that exits 0 on its own.
		{
			name: "retired full-replay flag",
			argv: []string{"-bench", "radix", "-system", "tsoper", "-crashes", "1", "-scale", "0.05", "-full-replay"},
			want: 2, stderr: "not defined: -full-replay",
		},
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

// TestCompareMode runs the timing comparison end to end on a small budget
// and checks the artifact records identical reports.
func TestCompareMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two real campaigns")
	}
	out := filepath.Join(t.TempDir(), "checkpoint.json")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-compare-out", out, "-crashes", "5", "-parallel", "4"}, &stdout, &stderr); got != 0 {
		t.Fatalf("compare mode = %d\nstderr: %s", got, stderr.String())
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc compareDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("artifact is not the comparison document: %v\n%s", err, body)
	}
	if !doc.ReportsIdentical {
		t.Fatal("artifact records diverging reports")
	}
	if doc.Injections == 0 || doc.PrefixForkSeconds <= 0 || doc.FullReplaySeconds <= 0 {
		t.Fatalf("artifact incomplete: %+v", doc)
	}
}
