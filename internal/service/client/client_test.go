package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestAPIErrorDecoding covers the non-2xx paths: structured error bodies
// decode into Message, raw text bodies pass through verbatim, the raw bytes
// are always retained, and Retry-After is parsed on 429.
func TestAPIErrorDecoding(t *testing.T) {
	cases := []struct {
		name        string
		status      int
		retryAfter  string
		body        string
		wantMsg     string
		wantRetry   time.Duration
		wantBackoff bool
	}{
		{
			name:    "structured error document",
			status:  http.StatusBadRequest,
			body:    `{"error":"unknown benchmark \"doom\""}`,
			wantMsg: `unknown benchmark "doom"`,
		},
		{
			name:    "raw text body",
			status:  http.StatusInternalServerError,
			body:    "worker exploded\n",
			wantMsg: "worker exploded",
		},
		{
			name:    "JSON body without error field",
			status:  http.StatusConflict,
			body:    `{"state":"running"}`,
			wantMsg: `{"state":"running"}`,
		},
		{
			name:        "429 with Retry-After",
			status:      http.StatusTooManyRequests,
			retryAfter:  "7",
			body:        `{"error":"queue full (64 jobs)"}`,
			wantMsg:     "queue full (64 jobs)",
			wantRetry:   7 * time.Second,
			wantBackoff: true,
		},
		{
			name:        "over-budget 429 keeps the estimate body",
			status:      http.StatusTooManyRequests,
			body:        `{"error":"program estimated at 9000000 trace ops, over the 4194304-op admission budget","estimate":{"ops":9000000,"stores":9000000,"loads":0,"syncs":0,"markers":0,"computes":0,"cycles":126004000},"budget":4194304}`,
			wantMsg:     "program estimated at 9000000 trace ops, over the 4194304-op admission budget",
			wantBackoff: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()

			c := New(srv.URL, nil)
			_, err := c.Submit(context.Background(), service.JobSpec{Bench: "radix", System: "tsoper"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("want *APIError, got %v", err)
			}
			if apiErr.Status != tc.status {
				t.Errorf("Status = %d, want %d", apiErr.Status, tc.status)
			}
			if apiErr.Message != tc.wantMsg {
				t.Errorf("Message = %q, want %q", apiErr.Message, tc.wantMsg)
			}
			if string(apiErr.Body) != tc.body {
				t.Errorf("Body = %q, want the raw bytes %q", apiErr.Body, tc.body)
			}
			if apiErr.RetryAfter != tc.wantRetry {
				t.Errorf("RetryAfter = %s, want %s", apiErr.RetryAfter, tc.wantRetry)
			}
			if got := IsBackpressure(err); got != tc.wantBackoff {
				t.Errorf("IsBackpressure = %v, want %v", got, tc.wantBackoff)
			}
		})
	}

	// The structured 429 body must round-trip into the estimate document.
	t.Run("estimate decodes from Body", func(t *testing.T) {
		body := `{"error":"over budget","estimate":{"ops":9000000},"budget":4194304}`
		apiErr := &APIError{Status: 429, Body: []byte(body)}
		var doc struct {
			Estimate struct {
				Ops int `json:"ops"`
			} `json:"estimate"`
			Budget int `json:"budget"`
		}
		if err := json.Unmarshal(apiErr.Body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Estimate.Ops != 9000000 || doc.Budget != 4194304 {
			t.Fatalf("decoded %+v", doc)
		}
	})
}

// TestEventsContextCancellation: a job that never terminates must not pin
// the caller — canceling the context ends a stream that is still carrying
// progress, and Events returns an error matching context.Canceled.
func TestEventsContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for events := 1; ; events++ {
			fmt.Fprintf(w, "event: progress\ndata: {\"events\":%d}\n\n", events)
			w.(http.Flusher).Flush()
			select {
			case <-tick.C:
			case <-r.Context().Done():
				return
			}
		}
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var samples int
	c := New(srv.URL, nil)
	st, err := c.Events(ctx, "j1", func(telemetry.Progress) {
		if samples++; samples == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Events err = %v, want context.Canceled", err)
	}
	if st.State != "" {
		t.Errorf("canceled Events reported a state: %+v", st)
	}
}

// sseServer streams the given raw SSE payload for any events request.
func sseServer(t *testing.T, payload string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, payload)
	}))
}

// TestEventsWellFormed consumes a healthy stream: progress samples in
// order, then the terminal state.
func TestEventsWellFormed(t *testing.T) {
	srv := sseServer(t, ""+
		"event: progress\ndata: {\"events\":100,\"cycle\":5000}\n\n"+
		"event: progress\ndata: {\"events\":200,\"cycle\":9000}\n\n"+
		"event: state\ndata: {\"id\":\"j1\",\"state\":\"done\"}\n\n")
	defer srv.Close()

	var got []telemetry.Progress
	c := New(srv.URL, nil)
	st, err := c.Events(context.Background(), "j1", func(p telemetry.Progress) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.ID != "j1" {
		t.Errorf("terminal status = %+v", st)
	}
	if len(got) != 2 || got[0].Events != 100 || got[1].Cycle != 9000 {
		t.Errorf("progress samples = %+v", got)
	}
}

// TestEventsMalformed pins the failure modes: bad progress JSON, bad state
// JSON, unknown event types, unframed lines, and truncated streams all
// error instead of being silently skipped.
func TestEventsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantErr string
	}{
		{
			name:    "progress data is not JSON",
			payload: "event: progress\ndata: {not json}\n\n",
			wantErr: "malformed progress event",
		},
		{
			name:    "progress data is wrong type",
			payload: "event: progress\ndata: {\"events\":\"many\"}\n\n",
			wantErr: "malformed progress event",
		},
		{
			name:    "state data is not JSON",
			payload: "event: state\ndata: 12,34\n\n",
			wantErr: "malformed state event",
		},
		{
			name:    "unknown event type",
			payload: "event: surprise\ndata: {}\n\n",
			wantErr: `unexpected SSE event "surprise"`,
		},
		{
			name:    "data without event framing",
			payload: "data: {\"events\":1}\n\n",
			wantErr: "unexpected SSE event",
		},
		{
			name:    "garbage line",
			payload: "progress!!\n",
			wantErr: "malformed SSE line",
		},
		{
			name:    "stream ends without state",
			payload: "event: progress\ndata: {\"events\":1,\"cycle\":2}\n\n",
			wantErr: "without a terminal state event",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv := sseServer(t, tc.payload)
			defer srv.Close()
			c := New(srv.URL, nil)
			_, err := c.Events(context.Background(), "j1", nil)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestEventsNon200 surfaces the API error for a missing job.
func TestEventsNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such job"}`)
	}))
	defer srv.Close()
	c := New(srv.URL, nil)
	_, err := c.Events(context.Background(), "gone", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("want 404 *APIError, got %v", err)
	}
}
