// Package client is the typed Go client for a tsoper-serve instance: the
// service tests, tsoper-serve's smoke test, tsoper-bench's service_jobs
// workload, and any program that wants simulation results without running
// simulations locally speak this package instead of raw HTTP.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// Client talks to one tsoper-serve instance.
type Client struct {
	base string
	hc   *http.Client
}

// New creates a client for a base URL like "http://127.0.0.1:7433". A nil
// hc means http.DefaultClient.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Base returns the server base URL the client targets.
func (c *Client) Base() string { return c.base }

// APIError is a non-2xx response. RetryAfter is the response's Retry-After
// header, when it carries one. Message is the decoded `error` field when
// the body is an error document, the raw body text otherwise; Body always
// keeps the raw bytes so callers can decode structured rejection documents
// (e.g. the over-budget 429's cost estimate).
type APIError struct {
	Status     int
	Message    string
	Body       []byte
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("service: HTTP %d: %s (retry after %s)", e.Status, e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// IsBackpressure reports whether err is the server shedding load (429).
func IsBackpressure(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return newAPIError(resp, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

func newAPIError(resp *http.Response, raw []byte) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw)), Body: raw}
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &doc) == nil && doc.Error != "" {
		apiErr.Message = doc.Error
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Submit submits a job spec. On a cache hit the returned status is already
// terminal ("done") with CacheHit set; otherwise it is queued (possibly
// Deduped onto an identical in-flight job). A full queue returns an
// *APIError with Status 429 and RetryAfter set.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobStatus{}, err
	}
	var st service.JobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body), &st)
	return st, err
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a completed job's result document (the run's Results
// snapshot JSON, byte-identical for identical specs). It fails with an
// *APIError carrying 202 semantics if the job is still pending.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, newAPIError(resp, raw)
	}
	return raw, nil
}

// Cancel cancels a queued job.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Run is submit-events-result in one call: it submits spec, follows the
// job's event stream to its terminal state unless the submission was
// already a cache hit, and fetches the result bytes. Every error — a
// rejected submission, a broken stream, a failed or canceled job — surfaces
// the first time it occurs; nothing is resubmitted.
func (c *Client) Run(ctx context.Context, spec service.JobSpec) ([]byte, service.JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, st, err
	}
	if st.State != "done" {
		if st, err = c.Events(ctx, st.ID, nil); err != nil {
			return nil, st, err
		}
	}
	if st.State != "done" {
		return nil, st, fmt.Errorf("service: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	body, err := c.Result(ctx, st.ID)
	if err != nil {
		return nil, st, err
	}
	return body, st, nil
}

// Events consumes a job's SSE stream: onProgress is invoked for every
// "progress" sample, and the terminal JobStatus from the closing "state"
// event is returned. A stream that ends without a state event, or carries
// an event whose data is not valid JSON for its type, is an error — the
// server frames every event it sends, so malformed framing means the
// stream cannot be trusted.
func (c *Client) Events(ctx context.Context, id string, onProgress func(telemetry.Progress)) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return service.JobStatus{}, newAPIError(resp, raw)
	}

	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var p telemetry.Progress
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					return service.JobStatus{}, fmt.Errorf("service: malformed progress event %q: %w", data, err)
				}
				if onProgress != nil {
					onProgress(p)
				}
			case "state":
				var st service.JobStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return service.JobStatus{}, fmt.Errorf("service: malformed state event %q: %w", data, err)
				}
				return st, nil
			default:
				return service.JobStatus{}, fmt.Errorf("service: unexpected SSE event %q", event)
			}
		default:
			return service.JobStatus{}, fmt.Errorf("service: malformed SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return service.JobStatus{}, err
	}
	if err := ctx.Err(); err != nil {
		return service.JobStatus{}, err
	}
	return service.JobStatus{}, errors.New("service: event stream ended without a terminal state event")
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Healthz reports server liveness; a draining server returns an error.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
