package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// rejectingServer answers the first `rejections` submissions with status
// (plus a Retry-After header when retryAfter is non-empty) and accepts the
// rest as instant cache hits; submits counts every POST.
func rejectingServer(t *testing.T, status int, retryAfter string, rejections int32, submits *atomic.Int32) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1) <= rejections {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"scripted %d"}`, status)
			return
		}
		writeJSON(w, service.JobStatus{ID: "j-1", State: "done", Key: "k"})
	})
	mux.HandleFunc("GET /v1/jobs/j-1/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRetryRule is the whole retry taxonomy: only a 429 or 503 carrying
// Retry-After is resubmitted; everything else — including the over-budget
// 429, which carries no header — surfaces unchanged after one submission.
func TestRetryRule(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		retried    bool
	}{
		{"429 with Retry-After", http.StatusTooManyRequests, "0", true},
		{"429 without Retry-After", http.StatusTooManyRequests, "", false},
		{"503 with Retry-After", http.StatusServiceUnavailable, "0", true},
		{"503 without Retry-After", http.StatusServiceUnavailable, "", false},
		{"400 with Retry-After", http.StatusBadRequest, "0", false},
		{"404", http.StatusNotFound, "", false},
		{"502 with Retry-After", http.StatusBadGateway, "0", false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var submits atomic.Int32
			srv := rejectingServer(t, tc.status, tc.retryAfter, 1, &submits)
			body, _, err := New(srv.URL, nil).Run(context.Background(), service.JobSpec{Bench: "radix", System: "tsoper"})
			if tc.retried {
				if err != nil || string(body) != `{"ok":true}` {
					t.Fatalf("Run = %q, %v; want the result after one retry", body, err)
				}
				if got := submits.Load(); got != 2 {
					t.Errorf("submits = %d, want 2", got)
				}
				return
			}
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("err = %v, want *APIError %d", err, tc.status)
			}
			if got := submits.Load(); got != 1 {
				t.Errorf("submits = %d, want exactly 1", got)
			}
		})
	}
}

// TestRunGivesUpAfterBudget: a server that keeps shedding load is tried
// maxAttempts times, then its last 429 surfaces instead of spinning.
func TestRunGivesUpAfterBudget(t *testing.T) {
	var submits atomic.Int32
	srv := rejectingServer(t, http.StatusTooManyRequests, "0", 1<<30, &submits)
	_, _, err := New(srv.URL, nil).Run(context.Background(), service.JobSpec{Bench: "radix", System: "tsoper"})
	if !IsBackpressure(err) {
		t.Fatalf("err = %v, want the final 429", err)
	}
	if got := submits.Load(); got != maxAttempts {
		t.Errorf("submits = %d, want maxAttempts = %d", got, maxAttempts)
	}
}

// TestRunHonoursRetryAfter: the resubmission waits exactly the server's
// Retry-After, not a client-side curve, and a context that ends first
// unblocks the wait.
func TestRunHonoursRetryAfter(t *testing.T) {
	var submits atomic.Int32
	srv := rejectingServer(t, http.StatusServiceUnavailable, "1", 1, &submits)
	c := New(srv.URL, nil)

	start := time.Now()
	if _, _, err := c.Run(context.Background(), service.JobSpec{Bench: "radix", System: "tsoper"}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second || elapsed > 3*time.Second {
		t.Errorf("Run took %s, want about the 1s Retry-After", elapsed)
	}

	submits.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := c.Run(ctx, service.JobSpec{Bench: "radix", System: "tsoper"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline during the Retry-After wait", err)
	}
	if got := submits.Load(); got != 1 {
		t.Errorf("submits = %d, want 1 (the wait was cut short)", got)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		panic(err)
	}
}
