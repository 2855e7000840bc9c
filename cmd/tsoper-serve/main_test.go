package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// TestExitCodes pins the CLI contract: 2 for argument mistakes (before any
// listener opens), 1 for runtime failures like an unusable listen address.
func TestExitCodes(t *testing.T) {
	// A listener we never accept on, so "address already in use" is a
	// deterministic runtime failure.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	cases := []struct {
		name   string
		argv   []string
		want   int
		stderr string
	}{
		{name: "bad flag", argv: []string{"-nonsense"}, want: 2},
		{name: "stray argument", argv: []string{"extra"}, want: 2, stderr: "unexpected argument"},
		{name: "empty addr", argv: []string{"-addr", ""}, want: 2, stderr: "-addr must not be empty"},
		{name: "negative workers", argv: []string{"-workers", "-1"}, want: 2, stderr: "-workers must not be negative"},
		{name: "negative queue", argv: []string{"-queue", "-4"}, want: 2, stderr: "-queue must not be negative"},
		{name: "negative cache", argv: []string{"-cache", "-1"}, want: 2, stderr: "-cache must not be negative"},
		{name: "negative program budget", argv: []string{"-max-program-ops", "-1"}, want: 2, stderr: "-max-program-ops must not be negative"},
		{name: "non-positive drain timeout", argv: []string{"-drain-timeout", "0s"}, want: 2, stderr: "-drain-timeout must be positive"},
		// A retired flag paired with an address that fails at listen time,
		// so a server that still accepted the flag would exit 1, not hang.
		{name: "retired checkpoint-every flag", argv: []string{"-checkpoint-every", "5000", "-addr", "127.0.0.1:notaport"}, want: 2, stderr: "not defined: -checkpoint-every"},
		{name: "unparseable addr", argv: []string{"-addr", "127.0.0.1:notaport"}, want: 1, stderr: "serve:"},
		{name: "addr in use", argv: []string{"-addr", busy, "-workers", "1"}, want: 1, stderr: "address already in use"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.argv, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit = %d, want %d (stderr: %s)", got, tc.want, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
