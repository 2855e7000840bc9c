package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestUsageErrors pins the CLI contract: argument mistakes exit 2 before
// any connection is attempted.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		argv   []string
		stderr string
	}{
		{"bad flag", []string{"-nonsense"}, ""},
		{"zero jobs", []string{"-jobs", "0"}, "-jobs must be positive"},
		{"negative scale", []string{"-scale", "-1"}, "-scale must be positive"},
		{"negative dup", []string{"-dup", "-1"}, "-dup must be non-negative"},
		{"budget out of range", []string{"-error-budget", "1.5"}, "-error-budget must be in [0,1)"},
		{"bad concurrency entry", []string{"-concurrency", "1,zero"}, "bad -concurrency entry"},
		{"unknown program", []string{"-programs", "not_a_program"}, ""},
		{"retired cluster flag", []string{"-cluster"}, "flag provided but not defined: -cluster"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.argv, &stdout, &stderr); got != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", got, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// fakeServeBackend mimics just enough of tsoper-serve for the load
// generator: submissions with odd seeds fail 400 (deterministically — the
// client must not retry them), even seeds complete instantly.
func fakeServeBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.HealthStatus{State: "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec service.JobSpec
		json.NewDecoder(r.Body).Decode(&spec)
		if spec.Seed%2 == 1 {
			http.Error(w, `{"error":"scripted failure"}`, http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(service.JobStatus{
			ID: fmt.Sprintf("j-%d", spec.Seed), State: "done",
			Key: fmt.Sprintf("key-%d", spec.Seed),
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.MetricsSnapshot{JobsCompleted: 2})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestErrorBudget: half the jobs fail deterministically; a budget above
// the rate passes, below it fails, and the breakdown names the status.
func TestErrorBudget(t *testing.T) {
	srv := fakeServeBackend(t)
	base := []string{"-addr", srv.URL, "-jobs", "4", "-dup", "0", "-concurrency", "1"}

	var stdout, stderr bytes.Buffer
	if got := run(append(base, "-error-budget", "0.6"), &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d within budget, want 0 (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "error breakdown") || !strings.Contains(stdout.String(), "400") {
		t.Errorf("stdout missing per-status breakdown:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if got := run(append(base, "-error-budget", "0.25"), &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d over budget, want 1", got)
	}
	if !strings.Contains(stderr.String(), "exceeds budget") {
		t.Errorf("stderr %q does not explain the budget breach", stderr.String())
	}

	// The default budget is zero: any failure fails the run.
	if got := run(base, &bytes.Buffer{}, &bytes.Buffer{}); got != 1 {
		t.Fatalf("exit = %d with default budget and failures, want 1", got)
	}
}

// TestJSONReport: -json persists the full report — levels, error
// breakdown, rate — for CI artifacts.
func TestJSONReport(t *testing.T) {
	srv := fakeServeBackend(t)
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	run([]string{"-addr", srv.URL, "-jobs", "4", "-dup", "0", "-concurrency", "1,2",
		"-error-budget", "0.9", "-json", path}, &stdout, &stderr)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if len(rep.Levels) != 2 {
		t.Errorf("levels = %d, want 2", len(rep.Levels))
	}
	if rep.Errors["400"] == 0 {
		t.Errorf("report errors = %v, want 400s counted", rep.Errors)
	}
	if rep.ErrorRate <= 0 {
		t.Errorf("error rate = %g, want > 0", rep.ErrorRate)
	}
	if rep.Server == nil || rep.Server.JobsCompleted != 2 {
		t.Errorf("server snapshot = %+v, want the backend's 2 completed jobs", rep.Server)
	}
}
