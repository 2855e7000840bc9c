package service_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/trace"
)

// smallSpec is a job small enough for unit tests (a few ms of simulation).
func smallSpec(seed int64) service.JobSpec {
	return service.JobSpec{Bench: "radix", System: "tsoper", Scale: 0.05, Seed: seed}
}

func startServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	srv := service.New(cfg)
	srv.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv, client.New(ts.URL, ts.Client())
}

// The acceptance path: a job's result document is byte-identical to a
// direct harness run of the same config, and an identical resubmission is
// a cache hit returning the very same bytes.
func TestResultMatchesDirectRunAndCaches(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	spec := smallSpec(7)

	body, st, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.CacheHit {
		t.Fatal("first submission must not be a cache hit")
	}

	// Direct, in-process run of the same Figure-11 cell.
	p, _ := trace.ByName(spec.Bench)
	res, err := harness.RunConfigChecked(p, machine.TableI(machine.TSOPER), harness.Options{Scale: spec.Scale, Seed: spec.Seed})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	var direct bytes.Buffer
	if err := res.Snapshot().WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, direct.Bytes()) {
		t.Fatal("service result differs from direct harness run")
	}

	// Resubmit: must be an immediate cache hit with identical bytes.
	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.CacheHit || st2.State != "done" {
		t.Fatalf("resubmission not served from cache: %+v", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("identical specs got different keys: %s vs %s", st2.Key, st.Key)
	}
	body2, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("cached result: %v", err)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached result bytes differ from the original run")
	}
}

// Identical in-flight submissions coalesce onto one job (singleflight).
func TestInflightDedup(t *testing.T) {
	srv := service.New(service.Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Workers not started yet: the job stays queued.
	first, err := c.Submit(ctx, smallSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, smallSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("duplicate submission not coalesced: first %+v second %+v", first, second)
	}
	if m := srv.Metrics(); m.Cache.Dedups != 1 {
		t.Fatalf("dedup counter = %d, want 1", m.Cache.Dedups)
	}

	srv.Start()
	if _, err := c.Events(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}
	ctxD, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Drain(ctxD)
}

// A full queue sheds load with 429 + Retry-After instead of growing.
func TestQueueFullBackpressure(t *testing.T) {
	srv := service.New(service.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// No workers: fill the queue with distinct specs.
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := c.Submit(ctx, smallSpec(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	_, err := c.Submit(ctx, smallSpec(3))
	if err == nil {
		t.Fatal("third submission admitted past the bound")
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %v", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("Retry-After missing or zero: %v", apiErr.RetryAfter)
	}
	if !client.IsBackpressure(err) {
		t.Fatal("IsBackpressure misses a 429")
	}
	if m := srv.Metrics(); m.JobsRejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.JobsRejected)
	}
}

// Canceling a queued job frees its singleflight slot; running and unknown
// jobs answer 409 / 404.
func TestCancel(t *testing.T) {
	srv := service.New(service.Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	st, err := c.Submit(ctx, smallSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "canceled" {
		t.Fatalf("state %s after cancel", got.State)
	}
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Fatal("result of canceled job must error")
	}
	if _, err := c.Cancel(ctx, "j-999999"); err == nil {
		t.Fatal("canceling unknown job must 404")
	}

	// The identical spec must be admissible again (inflight slot freed).
	st2, err := c.Submit(ctx, smallSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Deduped || st2.ID == st.ID {
		t.Fatalf("resubmission after cancel coalesced onto the canceled job: %+v", st2)
	}
}

// SSE delivers progress samples and a terminal state event.
func TestEventsStream(t *testing.T) {
	// Workers start only after the stream is connected, so the subscriber
	// observes the run from its first sample.
	srv := service.New(service.Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	st, err := c.Submit(ctx, smallSpec(19))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.Base() + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The stream (and its subscription) is live once headers arrived; now
	// let the worker pool pick the job up.
	srv.Start()
	defer func() {
		ctxD, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctxD)
	}()
	var progress, state int
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: progress":
			progress++
		case line == "event: state":
			state++
		}
	}
	if state != 1 {
		t.Fatalf("got %d state events, want 1", state)
	}
	if progress == 0 {
		t.Fatal("no progress events: the final sample is always delivered")
	}
}

// Drain finishes queued work, refuses new work, and flips healthz.
func TestDrain(t *testing.T) {
	srv := service.New(service.Config{Workers: 2, QueueDepth: 8})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	var ids []string
	for seed := int64(21); seed < 24; seed++ {
		st, err := c.Submit(ctx, smallSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctxD, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctxD); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %s left %s after drain", id, st.State)
		}
	}
	if _, err := c.Submit(ctx, smallSpec(99)); err == nil {
		t.Fatal("submission admitted while draining")
	}
	if err := c.Healthz(ctx); err == nil {
		t.Fatal("healthz must fail while draining")
	}
	m := srv.Metrics()
	if !m.Draining || m.JobsCompleted != 3 || m.Latency.Count != 3 {
		t.Fatalf("metrics after drain: %+v", m)
	}
	if m.Latency.P50MS <= 0 || m.Latency.P99MS < m.Latency.P50MS {
		t.Fatalf("latency percentiles inconsistent: %+v", m.Latency)
	}
}

// A bad spec is a 400, not a queued failure.
func TestBadSpecs(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	for name, spec := range map[string]service.JobSpec{
		"bench":  {Bench: "no-such-bench", System: "tsoper"},
		"system": {Bench: "radix", System: "no-such-system"},
		"scale":  {Bench: "radix", System: "tsoper", Scale: -1},
		"fault":  {Bench: "radix", System: "tsoper", FaultPreset: "no-such-preset"},
	} {
		_, err := c.Submit(ctx, spec)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %v", name, err)
		}
	}

	// The retired scheduler field is now an unknown field.
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"bench":"radix","system":"tsoper","scheduler":"heap"}`))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"scheduler\"`) {
		t.Errorf("scheduler field: want 400 naming the field, got %d: %s", rec.Code, rec.Body)
	}
}

// A job with an injected fault plan runs, completes, and caches under a
// different key than the fault-free run.
func TestFaultPresetJob(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	plain := smallSpec(23)
	faulty := smallSpec(23)
	faulty.FaultPreset = "nvm-transient"
	keyP, err := plain.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	keyF, err := faulty.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if keyP == keyF {
		t.Fatal("fault preset did not change the cache key")
	}
	if _, _, err := c.Run(ctx, faulty); err != nil {
		t.Fatalf("faulty run: %v", err)
	}
}

// TestEvictionCounter: a cache squeezed past capacity reports its
// evictions, so operators can tell "low hit rate" from "cache too small".
func TestEvictionCounter(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1, QueueDepth: 16, CacheEntries: 2})
	ctx := context.Background()
	for seed := int64(81); seed < 86; seed++ {
		if _, _, err := c.Run(ctx, smallSpec(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 5 distinct results through a 2-entry LRU: at least 3 evictions.
	if m.Cache.Evictions < 3 {
		t.Errorf("evictions = %d, want >= 3", m.Cache.Evictions)
	}
}

// TestJobGauges: the queued/running gauges rise while work is in flight
// and return exactly to zero once the queue empties — a leaked gauge would
// report a permanently loaded server.
func TestJobGauges(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1, QueueDepth: 16})
	ctx := context.Background()

	// The first job is deliberately slow (scale 3 ≈ 200ms of simulation) so
	// it pins the single worker while the polls below run: a Submit round
	// trip itself costs ~15ms (the cache key hashes the generated profile),
	// so a backlog of instant jobs can fully drain during the submissions.
	slow := service.JobSpec{Bench: "radix", System: "tsoper", Scale: 3, Seed: 97}
	st, err := c.Submit(ctx, slow)
	if err != nil {
		t.Fatalf("submit slow: %v", err)
	}
	ids := []string{st.ID}
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, smallSpec(int64(91+i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	inFlight := func() int {
		m := srv.Metrics()
		return m.JobsQueued + m.JobsRunning
	}
	sawLoad := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if inFlight() > 0 {
			sawLoad = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawLoad {
		t.Error("gauges never showed in-flight work for a 4-deep backlog")
	}
	for _, id := range ids {
		if _, err := c.Events(ctx, id, nil); err != nil {
			t.Fatalf("events %s: %v", id, err)
		}
	}
	// Terminal states must return both gauges to zero.
	waitSettle(t, 2*time.Second, func() bool { return inFlight() == 0 })
}

func waitSettle(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
