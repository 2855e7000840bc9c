// Package service turns the simulator into a long-lived
// simulation-as-a-service process: a bounded job queue with admission
// control and backpressure, a worker pool that runs harness jobs under
// per-job stall deadlines, a content-addressed result cache that
// deduplicates identical and in-flight requests, and an HTTP API
// (submit/status/result/cancel, SSE progress streaming, /healthz and
// /metrics) with graceful drain.
//
// Soundness of the cache rests on two substrate guarantees: the simulator
// is deterministic (same spec, same bytes), and results are byte-identical
// across event schedulers (the differential suite in
// scheduler_equiv_test.go). The cache key is therefore a *content address*:
// the SHA-256 of the resolved workload profile, the seed, and the machine
// configuration's canonical form (machine.Config.CanonicalJSON). A job's
// result document is its Results snapshot JSON
// (machine.Results.Snapshot().WriteJSON), which the simulator produces
// byte-identically for byte-identical keys.
package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker-pool width (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects submissions with 429 + Retry-After instead of growing.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (default 256
	// entries, LRU eviction).
	CacheEntries int
	// JobTimeout arms each job's stall watchdog with this progress horizon
	// in simulation cycles (default machine.DefaultWatchdogHorizon), so no
	// wedged simulation can hold a worker forever.
	JobTimeout sim.Time
	// ProgressStride is the telemetry-event sampling period for SSE
	// progress (default telemetry.DefaultProgressStride).
	ProgressStride int
	// RetainDone caps retained terminal job records (default 4096); the
	// oldest are forgotten first. Results live on in the cache.
	RetainDone int
	// MaxProgramOps is the admission budget for program jobs: a program
	// whose up-front cost estimate exceeds this many trace ops is rejected
	// with 429 before it can occupy a worker (default 4Mi ops, roughly 80×
	// a full-scale profile job).
	MaxProgramOps int
	// CheckpointEvery is the checkpoint stride (simulation cycles) for
	// program jobs (default DefaultCheckpointEvery). Each run's last
	// execution-phase checkpoint blob is cached under "ckpt:"+key so a
	// later superprogram job can warm-start from it (see warmstart.go).
	CheckpointEvery sim.Time
}

// DefaultCheckpointEvery is the default checkpoint stride for program jobs.
const DefaultCheckpointEvery sim.Time = 100_000

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = machine.DefaultWatchdogHorizon
	}
	if c.ProgressStride <= 0 {
		c.ProgressStride = telemetry.DefaultProgressStride
	}
	if c.RetainDone <= 0 {
		c.RetainDone = 4096
	}
	if c.MaxProgramOps <= 0 {
		c.MaxProgramOps = 4 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	return c
}

// Server is one service instance. Construct with New, launch workers with
// Start, mount its ServeHTTP anywhere, stop with Drain.
type Server struct {
	cfg     Config
	queue   *queue
	cache   *resultCache
	metrics *metrics
	handler *httpHandler

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // cache key -> queued/running job (singleflight)
	doneIDs  []string        // terminal-job retention ring, oldest first
	nextID   uint64
	nQueued  int // per-state gauges for /metrics
	nRunning int
	draining bool
	started  bool

	wg sync.WaitGroup
}

// New creates a server. No goroutines run until Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    newQueue(cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheEntries),
		metrics:  newMetrics(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	s.handler = newHTTPHandler(s)
	return s
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.draining {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain stops admission (submissions get 503 + Retry-After), lets the
// workers finish every queued and in-flight job, and returns when the pool
// is idle — the SIGTERM half of graceful shutdown. It is idempotent; ctx
// bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// submitOutcome classifies one submission for the HTTP layer.
type submitOutcome int

const (
	outcomeQueued submitOutcome = iota
	outcomeCacheHit
	outcomeDeduped
	outcomeQueueFull
	outcomeDraining
	// outcomeOverBudget rejects a program job whose cost estimate exceeds
	// Config.MaxProgramOps — admission control from static cost, no
	// simulation spent.
	outcomeOverBudget
)

// submit admits one resolved job. It returns the job record (authoritative
// for cache hits and dedupes too) and how admission went.
func (s *Server) submit(spec JobSpec) (*job, submitOutcome, error) {
	plan, err := spec.resolve()
	if err != nil {
		return nil, 0, err
	}

	if plan.prog != nil && plan.est.Ops > s.cfg.MaxProgramOps {
		s.metrics.rejected.Add(1)
		// Return the job shell so the HTTP layer can surface the estimate.
		return &job{spec: spec, plan: plan}, outcomeOverBudget, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, outcomeDraining, nil
	}
	s.metrics.submitted.Add(1)

	if body, ok := s.cache.Get(plan.key); ok {
		// Content hit: a completed job record materializes instantly.
		s.metrics.cacheHits.Add(1)
		j := s.newJobLocked(spec, plan)
		j.state = stateDone
		j.cacheHit = true
		j.result = body
		now := time.Now()
		j.started, j.finished = now, now
		close(j.done)
		s.retainLocked(j)
		return j, outcomeCacheHit, nil
	}
	if j, ok := s.inflight[plan.key]; ok {
		// Identical request already queued or running: coalesce onto it.
		s.metrics.dedups.Add(1)
		return j, outcomeDeduped, nil
	}

	s.metrics.cacheMisses.Add(1)
	j := s.newJobLocked(spec, plan)
	if !s.queue.TryPush(j) {
		s.metrics.rejected.Add(1)
		delete(s.jobs, j.id)
		return nil, outcomeQueueFull, nil
	}
	s.inflight[plan.key] = j
	s.nQueued++
	return j, outcomeQueued, nil
}

func (s *Server) newJobLocked(spec JobSpec, p plan) *job {
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.nextID),
		spec:      spec,
		plan:      p,
		state:     stateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// retainLocked records a terminal job and forgets the oldest beyond the
// retention cap, bounding the registry for long-lived servers.
func (s *Server) retainLocked(j *job) {
	s.doneIDs = append(s.doneIDs, j.id)
	for len(s.doneIDs) > s.cfg.RetainDone {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
}

// lookup returns a job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancel cancels a queued job. Running jobs cannot be interrupted (the
// simulation has no preemption point), and terminal jobs are left alone;
// both report false with their current state.
func (s *Server) cancel(id string) (canceled bool, state jobState, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return false, "", false
	}
	if j.state != stateQueued {
		return false, j.state, true
	}
	j.state = stateCanceled
	j.finished = time.Now()
	s.nQueued--
	delete(s.inflight, j.plan.key)
	s.metrics.canceled.Add(1)
	close(j.done)
	s.retainLocked(j)
	return true, stateCanceled, true
}

// worker pulls jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.Chan() {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != stateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	j.state = stateRunning
	j.started = time.Now()
	s.nQueued--
	s.nRunning++
	s.mu.Unlock()

	// Each run gets its own bus (track handles are machine-local) carrying
	// a progress sink that fans out to the job's SSE subscribers.
	sink := telemetry.NewProgressSink(s.cfg.ProgressStride, func(p telemetry.Progress) {
		s.publishProgress(j, p)
	})
	cfg := j.plan.cfg
	cfg.Telemetry = telemetry.NewBus(sink)
	opts := harness.Options{
		Scale:   j.plan.scale,
		Seed:    j.plan.seed,
		Timeout: s.cfg.JobTimeout,
	}
	var ckptBlob []byte
	if j.plan.prog != nil {
		// Emit periodic checkpoints and keep the last execution-phase blob
		// — the one a future superprogram job can warm-start from. Drain-
		// and done-phase blobs never replay-verify under an extended
		// workload, so they are not worth caching.
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.OnCheckpoint = func(blob []byte) {
			if h, _, derr := ckpt.DecodeBlob(blob); derr == nil && h.Phase == machine.CheckpointPhaseExec {
				ckptBlob = blob
			}
		}
		if blob, ok := s.lookupWarmStart(j.plan); ok {
			opts.ResumeFrom = blob
		}
	}
	var res *machine.Results
	var err error
	if j.plan.prog != nil {
		res, err = harness.RunProgramConfigChecked(j.plan.prog, cfg, opts)
		if err != nil && len(opts.ResumeFrom) > 0 && isCheckpointErr(err) {
			// The prefix heuristic guessed wrong (replay-verification
			// rejected the blob): run cold. Correctness never depended on
			// the warm start.
			s.metrics.warmStartRejects.Add(1)
			opts.ResumeFrom = nil
			ckptBlob = nil
			res, err = harness.RunProgramConfigChecked(j.plan.prog, cfg, opts)
		} else if len(opts.ResumeFrom) > 0 {
			s.metrics.warmStarts.Add(1)
		}
	} else {
		res, err = harness.RunConfigChecked(j.plan.bench, cfg, opts)
	}

	var body []byte
	if err == nil {
		var buf bytes.Buffer
		if werr := res.Snapshot().WriteJSON(&buf); werr != nil {
			err = fmt.Errorf("service: encoding result: %w", werr)
		} else {
			body = buf.Bytes()
		}
	}
	sink.Flush()

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, j.plan.key)
	j.finished = time.Now()
	s.nRunning--
	if err != nil {
		j.state = stateFailed
		j.err = err.Error()
		s.metrics.failed.Add(1)
	} else {
		j.state = stateDone
		j.result = body
		s.cache.Put(j.plan.key, body)
		if len(ckptBlob) > 0 {
			s.cache.Put(ckptKeyPrefix+j.plan.key, ckptBlob)
		}
		s.metrics.completed.Add(1)
		s.metrics.observeLatency(j.finished.Sub(j.submitted))
	}
	close(j.done)
	s.retainLocked(j)
}

// publishProgress fans a sample out to the job's subscribers. Slow
// subscribers lose samples rather than stalling the simulation.
func (s *Server) publishProgress(j *job, p telemetry.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.progress = p
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// subscribe registers a progress channel on the job; the returned func
// unregisters it. Completed jobs get no samples — callers should consult
// the job state alongside.
func (s *Server) subscribe(j *job) (<-chan telemetry.Progress, func()) {
	ch := make(chan telemetry.Progress, 16)
	s.mu.Lock()
	j.subs = append(j.subs, ch)
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
}

// retryAfter estimates how long until queue space frees up: the queued work
// divided by the pool width at the observed mean job latency, floored at
// one second — honest backpressure without leaking precision it lacks.
func (s *Server) retryAfter() time.Duration {
	mean := s.metrics.meanLatency()
	if mean <= 0 {
		mean = time.Second
	}
	d := time.Duration(s.queue.Depth()/s.cfg.Workers+1) * mean
	if d < time.Second {
		d = time.Second
	}
	return d.Round(time.Second)
}
