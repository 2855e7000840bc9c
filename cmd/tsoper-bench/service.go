package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/trace"
)

// serviceJobs is the service smoke test of the repository's CI, scaled up
// to 1,000 jobs: `tsoper-serve -workers 2 -queue 16` driven by `tsoper-load
// -concurrency 2,4 -jobs 12 -dup 3 -scale 0.05 -programs
// producer-consumer-ring`, at its first concurrency level. An in-process
// service with the same configuration serves a loopback listener; two
// closed-loop clients each submit their next job only once the previous
// one's result bytes arrived. The jobs follow tsoper-load's rule: four
// templates (radix, fft and ocean_cp at scale 0.05, and the
// producer-consumer-ring program, all under TSOPER); every third job
// resubmits a template from the duplicate pool at one fixed seed, and every
// other job takes the next template in rotation with a fresh seed.
type serviceJobs struct {
	jobs        []serviceJob
	inputDigest string // the jobs' content addresses, in order
}

func (w *serviceJobs) inputs() string { return w.inputDigest }

type serviceJob struct {
	spec  service.JobSpec
	dupOf int // index of the job this resubmits, or -1
}

// The CI smoke test's server and load-generator settings.
const (
	serviceWorkers = 2
	serviceQueue   = 16
	serviceClients = 2
	loadDup        = 3
	loadScale      = 0.05
	loadProgram    = "producer-consumer-ring"
)

var loadBenches = []string{"radix", "fft", "ocean_cp"}

func newServiceJobs(seed int64, short bool) (*serviceJobs, error) {
	n := 1000
	if short {
		n = 40
	}
	var templates []service.JobSpec
	for _, b := range loadBenches {
		templates = append(templates, service.JobSpec{Bench: b, System: "tsoper", Scale: loadScale})
	}
	p, err := program.ByName(loadProgram)
	if err != nil {
		return nil, fmt.Errorf("service_jobs: %w", err)
	}
	templates = append(templates, service.JobSpec{Program: p, System: "tsoper"})

	// The seed stands in for tsoper-load's -seed-base: seed 0 gives its
	// default, 1000, whose pool seed is 999 and unique seeds 1001, 1002, ….
	seedBase := 1000 * (seed + 1)
	firstUse := make([]int, len(templates)) // each pool spec's first job, or -1
	for k := range firstUse {
		firstUse[k] = -1
	}
	w := &serviceJobs{}
	nextSeed := seedBase
	for i := range n {
		if i%loadDup == 0 {
			k := (i / loadDup) % len(templates)
			spec := templates[k]
			spec.Seed = seedBase - 1
			w.jobs = append(w.jobs, serviceJob{spec: spec, dupOf: firstUse[k]})
			if firstUse[k] < 0 {
				firstUse[k] = i
			}
			continue
		}
		nextSeed++
		spec := templates[i%len(templates)]
		spec.Seed = nextSeed
		w.jobs = append(w.jobs, serviceJob{spec: spec, dupOf: -1})
	}
	h := sha256.New()
	keys := make([]string, len(w.jobs))
	for i, j := range w.jobs {
		key, err := j.spec.CacheKey()
		if err != nil {
			return nil, fmt.Errorf("service_jobs: job %d: %w", i, err)
		}
		if j.dupOf >= 0 && key != keys[j.dupOf] {
			return nil, fmt.Errorf("service_jobs: job %d resubmits job %d under another content address", i, j.dupOf)
		}
		keys[i] = key
		h.Write([]byte(key))
	}
	w.inputDigest = hex.EncodeToString(h.Sum(nil))
	return w, nil
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	body                []byte
	err                 error
	submit, wait, fetch time.Duration
}

// loadResult is one closed-loop run of the job list against a fresh server.
type loadResult struct {
	outcomes []jobOutcome
	metrics  service.MetricsSnapshot
}

// load starts a fresh service on a loopback listener, drives the job list
// through it from the closed-loop clients, and shuts everything down.
func (w *serviceJobs) load() (*loadResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service_jobs: %w", err)
	}
	srv := service.New(service.Config{Workers: serviceWorkers, QueueDepth: serviceQueue})
	srv.Start()
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}
	c := client.New("http://"+ln.Addr().String(), &http.Client{Transport: transport})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	res := &loadResult{outcomes: make([]jobOutcome, len(w.jobs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serviceClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.jobs) {
					return
				}
				res.outcomes[i] = runJob(ctx, c, w.jobs[i].spec)
			}
		}()
	}
	wg.Wait()
	res.metrics = srv.Metrics()

	// Close the client side first: the transport may hold a connection it
	// dialed but never sent a request on, and Shutdown waits five seconds
	// before treating such a connection as idle.
	transport.CloseIdleConnections()
	shutdownErr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) && shutdownErr == nil {
		shutdownErr = err
	}
	if err := srv.Drain(ctx); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	if shutdownErr != nil {
		return nil, fmt.Errorf("service_jobs: shutting down: %w", shutdownErr)
	}
	return res, nil
}

// runJob submits one job, waits for its terminal state on the event
// stream, and fetches the result bytes.
func runJob(ctx context.Context, c *client.Client, spec service.JobSpec) (o jobOutcome) {
	start := time.Now()
	st, err := c.Submit(ctx, spec)
	o.submit = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	if st.State != "done" {
		start = time.Now()
		st, err = c.Events(ctx, st.ID, nil)
		o.wait = time.Since(start)
		if err != nil {
			o.err = err
			return o
		}
	}
	if st.State != "done" {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return o
	}
	start = time.Now()
	o.body, o.err = c.Result(ctx, st.ID)
	o.fetch = time.Since(start)
	return o
}

func (w *serviceJobs) pass() (*passResult, error) {
	lr, err := w.load()
	if err != nil {
		return nil, err
	}
	return w.check(lr), nil
}

// check verifies every job got result bytes, that resubmissions got the
// bytes of the job they repeat, and digests the bodies in job order.
func (w *serviceJobs) check(lr *loadResult) *passResult {
	res := &passResult{ops: len(w.jobs)}
	h := sha256.New()
	for i, o := range lr.outcomes {
		switch {
		case o.err != nil:
			res.fail("job %d: %v", i, o.err)
		case len(o.body) == 0:
			res.fail("job %d: empty result", i)
		case w.jobs[i].dupOf >= 0 && !bytes.Equal(o.body, lr.outcomes[w.jobs[i].dupOf].body):
			res.fail("job %d: resubmission of job %d returned different bytes", i, w.jobs[i].dupOf)
		}
		h.Write(o.body)
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res
}

// trace reruns the load against a fresh server with spans around the
// client calls, then replays each unique job's stages outside the server:
// the content address (JobSpec.CacheKey), program compilation, the harness
// simulation and the snapshot encoding, whose bytes must equal the
// service's.
func (w *serviceJobs) trace(tr *tracer, ref *passResult) (map[string]float64, error) {
	var lr *loadResult
	err := tr.replica(func() error {
		var err error
		lr, err = w.load()
		return err
	})
	if err != nil {
		return nil, err
	}
	if replica := w.check(lr); replica.digest != ref.digest || replica.failed > 0 {
		return nil, fmt.Errorf("service_jobs traced load diverged from the untraced pass (%d failed jobs)", replica.failed)
	}
	var latency []float64
	for _, o := range lr.outcomes {
		latency = append(latency, float64(o.submit+o.wait+o.fetch)/float64(time.Millisecond))
		tr.record("service.submit_ms", o.submit)
		if o.wait > 0 {
			tr.record("service.wait_ms", o.wait)
		}
		tr.record("service.fetch_ms", o.fetch)
	}

	var uniq []int
	for i, j := range w.jobs {
		if j.dupOf < 0 {
			uniq = append(uniq, i)
		}
	}
	errs := make([]error, len(uniq))
	parallel(len(uniq), serviceWorkers, func(k int) {
		i := uniq[k]
		body, err := stages(tr, w.jobs[i].spec)
		switch {
		case err != nil:
			errs[k] = fmt.Errorf("job %d: %w", i, err)
		case !bytes.Equal(body, lr.outcomes[i].body):
			errs[k] = fmt.Errorf("job %d: stage replica bytes differ from the service's", i)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("service_jobs stage replica: %w", err)
	}
	return map[string]float64{
		"service.job_p50_ms":      percentile(latency, 50),
		"service.job_p99_ms":      percentile(latency, 99),
		"service.submit_ms":       tr.p50ms("service.submit_ms"),
		"service.wait_ms":         tr.p50ms("service.wait_ms"),
		"service.fetch_ms":        tr.p50ms("service.fetch_ms"),
		"service.hash_ms":         tr.p50ms("service.hash_ms"),
		"program.compile_ms":      tr.p50ms("program.compile_ms"),
		"service.simulate_ms":     tr.p50ms("service.simulate_ms"),
		"service.encode_ms":       tr.p50ms("service.encode_ms"),
		"service.cache_hit_ratio": lr.metrics.Cache.HitRate,
		"service.dedups":          float64(lr.metrics.Cache.Dedups),
		"service.rejected":        float64(lr.metrics.JobsRejected),
	}, nil
}

// stages runs one job the way a service worker does, stage by stage; the
// simulate stage compiles a program job again, as the harness does.
func stages(tr *tracer, spec service.JobSpec) ([]byte, error) {
	var err error
	tr.span("service.hash_ms", func() { _, err = spec.CacheKey() })
	if err != nil {
		return nil, err
	}
	var kind machine.SystemKind
	for _, k := range machine.Systems() {
		if k.String() == spec.System {
			kind = k
		}
	}
	cfg := machine.TableI(kind)
	opts := harness.Options{Scale: spec.Scale, Seed: spec.Seed, Timeout: machine.DefaultWatchdogHorizon}
	var res *machine.Results
	if spec.Program != nil {
		tr.span("program.compile_ms", func() {
			_, err = spec.Program.Compile(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}, spec.Seed)
		})
		if err != nil {
			return nil, err
		}
		tr.span("service.simulate_ms", func() { res, err = harness.RunProgramConfigChecked(spec.Program, cfg, opts) })
	} else {
		p, _ := trace.ByName(spec.Bench)
		tr.span("service.simulate_ms", func() { res, err = harness.RunConfigChecked(p, cfg, opts) })
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tr.span("service.encode_ms", func() { err = res.Snapshot().WriteJSON(&buf) })
	return buf.Bytes(), err
}
