package service_test

// Graceful drain with a live SSE progress stream: the contract is that
// Drain never truncates an open stream — the subscribed client still
// receives every frame through the terminal state event, the connection
// closes cleanly, and no server goroutine outlives the drain. The whole
// file is meaningful only under -race (CI runs it that way): a torn drain
// typically surfaces as a race on the subscription channel or a leaked
// events goroutine, not as a visible protocol error.

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// TestDrainWithActiveSSEStream queues a backlog behind one worker, opens an
// SSE stream on the LAST job — guaranteed still queued — and drains the
// server mid-stream. The stream must end with a clean terminal state event
// (strict framing: the client errors on any malformed or truncated frame),
// and the server's goroutines must all retire.
func TestDrainWithActiveSSEStream(t *testing.T) {
	// Setup is inlined (no startServer) so the goroutine baseline brackets
	// the server's whole lifecycle: everything created after this line must
	// be gone by the final check.
	baseline := runtime.NumGoroutine()

	srv := service.New(service.Config{Workers: 1, QueueDepth: 16})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var last string
	for seed := int64(121); seed < 127; seed++ {
		st, err := c.Submit(ctx, smallSpec(seed))
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		last = st.ID
	}

	// Open the stream before draining; the subscription is live once Events
	// has seen the 200, which it has by the time the first callback or the
	// return fires.
	type outcome struct {
		st       service.JobStatus
		err      error
		progress int
	}
	res := make(chan outcome, 1)
	var mu sync.Mutex
	samples := 0
	go func() {
		st, err := c.Events(ctx, last, func(p telemetry.Progress) {
			mu.Lock()
			samples++
			mu.Unlock()
		})
		mu.Lock()
		n := samples
		mu.Unlock()
		res <- outcome{st: st, err: err, progress: n}
	}()

	// Give the stream a moment to attach, then drain while the backlog —
	// including the streamed job — is still pending.
	time.Sleep(20 * time.Millisecond)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	select {
	case out := <-res:
		if out.err != nil {
			t.Fatalf("SSE stream across drain: %v (a truncated or malformed frame)", out.err)
		}
		if out.st.State != "done" {
			t.Fatalf("terminal state = %q, want done (job must finish, not be dropped)", out.st.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after drain")
	}

	// No goroutine leak: with the workers drained and the listener closed,
	// everything created since the baseline — workers, the events handler,
	// the stream's connection pair — must retire. Allow small slack for
	// runtime helpers; a leaked handler holds the count elevated past it.
	ts.Close()
	waitSettle(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}

// TestDrainCompletesStreamedBacklog: every job queued at drain time — not
// just the streamed one — reaches "done", each with a clean stream; drain
// means "finish what you accepted", never "shed it".
func TestDrainCompletesStreamedBacklog(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1, QueueDepth: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var ids []string
	for seed := int64(131); seed < 136; seed++ {
		st, err := c.Submit(ctx, smallSpec(seed))
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		ids = append(ids, st.ID)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			st, err := c.Events(ctx, id, nil)
			if err != nil {
				errs <- err
				return
			}
			if st.State != "done" {
				errs <- context.DeadlineExceeded
			}
		}(id)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("stream across drain: %v", err)
	}
}
