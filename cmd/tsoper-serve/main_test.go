package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/service/client"
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

// TestSmoke is the service smoke test: run serves a duplicate-heavy job mix
// on a real TCP port to two closed-loop clients, every resubmission returns
// the bytes of the job it repeats, and SIGTERM drains the server to exit 0.
// tsoper-bench's service_jobs workload scales this mix to 1,000 jobs.
func TestSmoke(t *testing.T) {
	// A registration of the test's own keeps a SIGTERM that arrives while
	// run's handler is not installed from killing the test binary; it is
	// reported as a stray signal below instead.
	stray := make(chan os.Signal, 1)
	signal.Notify(stray, syscall.SIGTERM)
	defer signal.Stop(stray)
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	var stderr syncBuffer // run logs to it while the test reads it
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "16"}, &stdout, &stderr)
	}()
	code := -1
	defer func() {
		if code < 0 { // a failure left the server running
			_ = self.Signal(syscall.SIGTERM)
			<-exit
		}
	}()

	// run logs the address it bound once the listener is open.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var addr string
	for {
		if _, rest, ok := strings.Cut(stderr.String(), "listening on "); ok {
			addr, _, _ = strings.Cut(rest, "\n")
			break
		}
		select {
		case code = <-exit:
			t.Fatalf("run exited %d before serving: %s", code, stderr.String())
		case <-ctx.Done():
			t.Fatal("server never logged its address")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("run logged the requested address %s, not the bound one", addr)
	}

	// The client's own transport, so that its idle connections can be
	// closed before the drain: Shutdown waits five seconds on a connection
	// that was dialed but never sent a request.
	transport := &http.Transport{}
	c := client.New("http://"+addr, &http.Client{Transport: transport})

	// Four templates, all under TSOPER: three benchmarks at scale 0.05 and
	// one library program. Every third job resubmits template (i/3) mod 4
	// at seed 999; the others rotate through the templates at seeds 1001,
	// 1002, ….
	ring, err := program.ByName("producer-consumer-ring")
	if err != nil {
		t.Fatal(err)
	}
	templates := []service.JobSpec{
		{Bench: "radix", System: "tsoper", Scale: 0.05},
		{Bench: "fft", System: "tsoper", Scale: 0.05},
		{Bench: "ocean_cp", System: "tsoper", Scale: 0.05},
		{Program: ring, System: "tsoper"},
	}
	const jobs = 24
	specs := make([]service.JobSpec, jobs)
	repeats := make([]int, jobs) // the job a resubmission repeats, or -1
	firstUse := map[int]int{}
	seed := int64(1000)
	for i := range specs {
		repeats[i] = -1
		if i%3 == 0 {
			k := (i / 3) % len(templates)
			specs[i] = templates[k]
			specs[i].Seed = 999
			if j, ok := firstUse[k]; ok {
				repeats[i] = j
			} else {
				firstUse[k] = i
			}
			continue
		}
		seed++
		specs[i] = templates[i%len(templates)]
		specs[i].Seed = seed
	}

	bodies := make([][]byte, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < jobs; i = int(next.Add(1)) - 1 {
				body, _, err := c.Run(ctx, specs[i])
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					continue
				}
				bodies[i] = body
			}
		}()
	}
	wg.Wait()
	resubmitted := 0
	for i, j := range repeats {
		if j < 0 {
			continue
		}
		resubmitted++
		if !bytes.Equal(bodies[i], bodies[j]) {
			t.Errorf("job %d returned other bytes than job %d, which it resubmits", i, j)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cache.Hits + m.Cache.Dedups; got != uint64(resubmitted) {
		t.Errorf("cache hits + dedups = %d, want one per resubmission (%d)", got, resubmitted)
	}

	transport.CloseIdleConnections()
	select {
	case sig := <-stray:
		t.Fatalf("stray %v before the drain", sig)
	default:
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	code = <-exit
	if code != 0 || !strings.Contains(stdout.String(), "drained clean") {
		t.Fatalf("run exited %d after SIGTERM\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	t.Log(strings.TrimSpace(stdout.String()))
}

// syncBuffer is a bytes.Buffer safe for concurrent use.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
