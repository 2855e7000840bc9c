// Command tsoper-load drives a tsoper-serve instance with a measured mix
// of repeated and unique simulation jobs, sweeping client concurrency and
// reporting sustained throughput with latency percentiles — so the
// service's capacity is a number, not a claim.
//
//	tsoper-load -addr http://localhost:7433 -concurrency 1,2,4,8 -jobs 32
//
// Every -dup'th job resubmits a spec from a small duplicate pool; the rest
// are unique (distinct seeds). With -check, the result bytes of every
// duplicate are compared against the first occurrence and any divergence
// fails the run (the cache must be byte-identical, not just equivalent).
// With -require-hit, the run fails unless the server reports at least one
// cache hit — the CI smoke assertion.
//
// -programs mixes workload-VM jobs into the load: each named library
// program (see tsoper-sim -list) joins both the duplicate pool and the
// unique rotation, so program-typed submissions exercise the canonical-hash
// cache path alongside profile jobs.
//
// Failures are never silent: every error is bucketed by status code
// (connection errors under "conn", deadline hits under "timeout") and the
// breakdown is printed; the run exits non-zero when the failed-job rate
// exceeds -error-budget (default 0 — any failure fails the run).
//
// Each sweep level reports its concurrency-scaling efficiency against the
// first. -json writes the whole report (levels, error breakdown, server
// metrics) to a file for CI artifacts.
//
// Exit status: 0 clean, 1 over-budget failures / byte mismatches / missing
// cache hits, 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// levelReport is one concurrency level's measured row.
type levelReport struct {
	Concurrency int     `json:"concurrency"`
	Jobs        int     `json:"jobs"`
	WallMS      float64 `json:"wall_ms"`
	Throughput  float64 `json:"throughput_per_s"`
	P50MS       float64 `json:"p50_ms"`
	P90MS       float64 `json:"p90_ms"`
	P99MS       float64 `json:"p99_ms"`
	MeanMS      float64 `json:"mean_ms"`
	// Efficiency is this level's throughput per client relative to the
	// first level's — 1.0 is perfect linear scaling.
	Efficiency float64 `json:"efficiency"`
}

// report is the -json artifact.
type report struct {
	Levels []levelReport `json:"levels"`
	// Errors buckets failed jobs by HTTP status ("429", "503", …), "conn"
	// for transport failures, "timeout" for deadline hits.
	Errors     map[string]uint64 `json:"errors,omitempty"`
	ErrorRate  float64           `json:"error_rate"`
	Mismatches uint64            `json:"mismatches"`
	// Server is the server's metrics snapshot after the sweep.
	Server *service.MetricsSnapshot `json:"server,omitempty"`
}

// errorTally buckets failures by class, concurrency-safe.
type errorTally struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (t *errorTally) add(err error) {
	class := "conn"
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		class = strconv.Itoa(apiErr.Status)
	case errors.Is(err, context.DeadlineExceeded):
		class = "timeout"
	}
	t.mu.Lock()
	t.m[class]++
	t.mu.Unlock()
}

func (t *errorTally) snapshot() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsoper-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:7433", "server base URL")
	concurrency := fs.String("concurrency", "1,2,4", "comma-separated client widths to sweep")
	jobs := fs.Int("jobs", 16, "jobs per concurrency level (> 0)")
	dup := fs.Int("dup", 4, "every dup'th job reuses the duplicate pool (0 = all unique)")
	benches := fs.String("bench", "radix,fft,ocean_cp", "comma-separated benchmark mix")
	programs := fs.String("programs", "", "comma-separated library programs to mix in as program-typed jobs")
	system := fs.String("system", "tsoper", "persistency system for every job")
	scale := fs.Float64("scale", 0.05, "workload scale factor (> 0)")
	seedBase := fs.Int64("seed-base", 1000, "first seed for unique jobs")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall deadline")
	check := fs.Bool("check", false, "verify duplicate submissions return byte-identical results")
	requireHit := fs.Bool("require-hit", false, "fail unless the server reports >= 1 cache hit")
	errorBudget := fs.Float64("error-budget", 0, "tolerated failed-job fraction in [0,1); above it the run exits 1")
	jsonPath := fs.String("json", "", "write the full report to this path as JSON")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		fs.Usage()
		return 2
	}
	if *jobs <= 0 {
		return usage("-jobs must be positive, got %d", *jobs)
	}
	if *scale <= 0 {
		return usage("-scale must be positive, got %g", *scale)
	}
	if *dup < 0 {
		return usage("-dup must be non-negative, got %d", *dup)
	}
	if *errorBudget < 0 || *errorBudget >= 1 {
		return usage("-error-budget must be in [0,1), got %g", *errorBudget)
	}
	var widths []int
	for _, s := range strings.Split(*concurrency, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w <= 0 {
			return usage("bad -concurrency entry %q", s)
		}
		widths = append(widths, w)
	}
	benchList := strings.Split(*benches, ",")
	for i := range benchList {
		benchList[i] = strings.TrimSpace(benchList[i])
	}

	// Job templates: one per benchmark, plus one program-typed template per
	// requested library program. A template becomes a concrete spec by
	// stamping a seed (program jobs carry no scale — their size is spelled
	// out by their instructions).
	templates := make([]service.JobSpec, 0, len(benchList))
	for _, b := range benchList {
		templates = append(templates, service.JobSpec{Bench: b, System: *system, Scale: *scale})
	}
	if *programs != "" {
		for _, name := range strings.Split(*programs, ",") {
			p, err := program.ByName(strings.TrimSpace(name))
			if err != nil {
				return usage("%v", err)
			}
			templates = append(templates, service.JobSpec{Program: p, System: *system})
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*addr, nil)
	if err := c.Healthz(ctx); err != nil {
		fmt.Fprintf(stderr, "server not healthy at %s: %v\n", *addr, err)
		return 1
	}

	// The duplicate pool: one spec per template, fixed seed, shared across
	// all levels so later levels exercise the cache the earlier ones filled.
	pool := make([]service.JobSpec, len(templates))
	for i, tmpl := range templates {
		pool[i] = tmpl
		pool[i].Seed = *seedBase - 1
	}

	var (
		firstBytes sync.Map // cache key -> first observed result bytes
		mismatches atomic.Uint64
		failures   atomic.Uint64
		attempted  atomic.Uint64
		nextSeed   atomic.Int64
	)
	tally := &errorTally{m: make(map[string]uint64)}
	nextSeed.Store(*seedBase)

	runOne := func(idx int) (time.Duration, bool) {
		var spec service.JobSpec
		if *dup > 0 && idx%*dup == 0 {
			spec = pool[(idx / *dup)%len(pool)]
		} else {
			spec = templates[idx%len(templates)]
			spec.Seed = nextSeed.Add(1)
		}
		attempted.Add(1)
		start := time.Now()
		body, st, err := c.Run(ctx, spec)
		lat := time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "job %v failed: %v\n", spec, err)
			failures.Add(1)
			tally.add(err)
			return lat, false
		}
		if *check {
			if prev, loaded := firstBytes.LoadOrStore(st.Key, body); loaded {
				if string(prev.([]byte)) != string(body) {
					fmt.Fprintf(stderr, "BYTE MISMATCH for key %s (job %s)\n", st.Key, st.ID)
					mismatches.Add(1)
				}
			}
		}
		return lat, true
	}

	var rep report
	fmt.Fprintf(stdout, "%-12s %6s %10s %12s %9s %9s %9s %9s %6s\n",
		"concurrency", "jobs", "wall", "throughput", "p50", "p90", "p99", "mean", "eff")
	jobIdx := 0
	for _, width := range widths {
		lats := make([]time.Duration, 0, *jobs)
		var mu sync.Mutex
		work := make(chan int)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range work {
					lat, ok := runOne(idx)
					if ok {
						mu.Lock()
						lats = append(lats, lat)
						mu.Unlock()
					}
				}
			}()
		}
		for i := 0; i < *jobs; i++ {
			work <- jobIdx
			jobIdx++
		}
		close(work)
		wg.Wait()
		wall := time.Since(start)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		lv := levelReport{
			Concurrency: width,
			Jobs:        len(lats),
			WallMS:      float64(wall) / float64(time.Millisecond),
			Throughput:  float64(len(lats)) / wall.Seconds(),
			P50MS:       float64(pct(lats, 50)) / float64(time.Millisecond),
			P90MS:       float64(pct(lats, 90)) / float64(time.Millisecond),
			P99MS:       float64(pct(lats, 99)) / float64(time.Millisecond),
			MeanMS:      float64(mean(lats)) / float64(time.Millisecond),
			Efficiency:  1,
		}
		if len(rep.Levels) > 0 {
			base := rep.Levels[0]
			if base.Throughput > 0 && base.Concurrency > 0 {
				perClientBase := base.Throughput / float64(base.Concurrency)
				if perClientBase > 0 {
					lv.Efficiency = (lv.Throughput / float64(lv.Concurrency)) / perClientBase
				}
			}
		}
		rep.Levels = append(rep.Levels, lv)
		fmt.Fprintf(stdout, "%-12d %6d %10s %9.1f/s %8.0fms %8.0fms %8.0fms %8.0fms %6.2f\n",
			width, lv.Jobs, wall.Round(time.Millisecond), lv.Throughput,
			lv.P50MS, lv.P90MS, lv.P99MS, lv.MeanMS, lv.Efficiency)
	}

	rep.Errors = tally.snapshot()
	rep.Mismatches = mismatches.Load()
	if n := attempted.Load(); n > 0 {
		rep.ErrorRate = float64(failures.Load()) / float64(n)
	}

	exit := 0
	m, err := c.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "fetching metrics: %v\n", err)
		exit = 1
	} else {
		rep.Server = &m
		fmt.Fprintf(stdout, "\nserver: %d completed, %d failed, %d rejected (429), cache %d hits / %d misses / %d dedups / %d evictions (hit rate %.2f)\n",
			m.JobsCompleted, m.JobsFailed, m.JobsRejected,
			m.Cache.Hits, m.Cache.Misses, m.Cache.Dedups, m.Cache.Evictions, m.Cache.HitRate)
		if *requireHit && m.Cache.Hits+m.Cache.Dedups == 0 {
			fmt.Fprintln(stderr, "no cache hits or dedups despite duplicate submissions")
			exit = 1
		}
	}

	if len(rep.Errors) > 0 {
		fmt.Fprintf(stdout, "\nerror breakdown (%d failed / %d attempted, rate %.3f):\n",
			failures.Load(), attempted.Load(), rep.ErrorRate)
		classes := make([]string, 0, len(rep.Errors))
		for k := range rep.Errors {
			classes = append(classes, k)
		}
		sort.Strings(classes)
		for _, k := range classes {
			fmt.Fprintf(stdout, "  %-8s %d\n", k, rep.Errors[k])
		}
	}

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, &rep); err != nil {
			fmt.Fprintf(stderr, "writing report: %v\n", err)
			exit = 1
		}
	}

	if rep.ErrorRate > *errorBudget {
		fmt.Fprintf(stderr, "error rate %.3f exceeds budget %.3f\n", rep.ErrorRate, *errorBudget)
		exit = 1
	}
	if n := mismatches.Load(); n > 0 {
		fmt.Fprintf(stderr, "%d duplicate results were not byte-identical\n", n)
		exit = 1
	}
	return exit
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}
