// Command tsoper-serve runs the simulation-as-a-service server: a bounded
// job queue, a simulation worker pool, a content-addressed result cache,
// and the HTTP API (submit/status/result/cancel, SSE progress, /healthz,
// /metrics).
//
//	tsoper-serve -addr :7433 -workers 8 -queue 64 -cache 256
//
// Submit jobs with curl:
//
//	curl -s localhost:7433/v1/jobs -d '{"bench":"radix","system":"tsoper"}'
//	curl -s localhost:7433/v1/jobs -d '{"program":{...},"system":"tsoper"}'
//
// or from Go with internal/service/client. Program jobs (PROGRAMS.md) are
// cost-estimated before admission — over-budget programs are rejected with
// 429 carrying the estimate — and cached under the program's canonical
// hash. SIGTERM/SIGINT drain gracefully: admission stops, queued and
// in-flight jobs finish, then the process exits 0.
//
// Exit status: 0 clean shutdown, 1 serve/drain failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":7433", "listen address")
	workers := fs.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 64, "admission queue bound; overflow gets 429 + Retry-After")
	cacheEntries := fs.Int("cache", 256, "content-addressed result cache entries (LRU)")
	jobTimeout := fs.Uint64("job-timeout", 0, "per-job stall-watchdog horizon in simulation cycles (0 = default)")
	maxProgramOps := fs.Int("max-program-ops", 0, "program-job admission budget in trace ops; over-budget programs get 429 + estimate (0 = default 4Mi)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "max wait for in-flight jobs at shutdown")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *addr == "" {
		return usage("-addr must not be empty")
	}
	if *workers < 0 {
		return usage("-workers must not be negative, got %d", *workers)
	}
	if *queueDepth < 0 {
		return usage("-queue must not be negative, got %d", *queueDepth)
	}
	if *cacheEntries < 0 {
		return usage("-cache must not be negative, got %d", *cacheEntries)
	}
	if *maxProgramOps < 0 {
		return usage("-max-program-ops must not be negative, got %d", *maxProgramOps)
	}
	if *drainTimeout <= 0 {
		return usage("-drain-timeout must be positive, got %v", *drainTimeout)
	}

	logger := log.New(stderr, "tsoper-serve: ", log.LstdFlags|log.Lmsgprefix)

	// Install the handler before the listener opens, so a signal sent once
	// /healthz answers always drains instead of killing the process.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	srv := service.New(service.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CacheEntries:  *cacheEntries,
		JobTimeout:    sim.Time(*jobTimeout),
		MaxProgramOps: *maxProgramOps,
	})
	srv.Start()

	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	logger.Printf("listening on %s", ln.Addr())
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		logger.Printf("%s: draining (queue depth %d)", sig, srv.Metrics().QueueDepth)
	case err := <-errCh:
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "drain: %v\n", err)
		return 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "shutdown: %v\n", err)
		return 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	m := srv.Metrics()
	fmt.Fprintf(stdout, "drained clean: %d completed, %d failed, %d cache hits (rate %.2f), p50 %.1fms p99 %.1fms\n",
		m.JobsCompleted, m.JobsFailed, m.Cache.Hits, m.Cache.HitRate,
		m.Latency.P50MS, m.Latency.P99MS)
	return 0
}
