package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/faultplan"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// JobSpec is the wire form of one simulation request. Zero values mean the
// defaults the one-shot CLIs use (full scale, seed 42, Table I config, no
// faults), so the smallest useful spec is
// {"bench":"radix","system":"tsoper"}. A spec names either a benchmark
// profile (Bench) or carries an inline workload program (Program), never
// both.
type JobSpec struct {
	// Bench names the workload profile (see tsoper-sim -list).
	Bench string `json:"bench,omitempty"`
	// Program is an inline workload program (see PROGRAMS.md). Program jobs
	// are cost-estimated before admission and cached under the program's
	// canonical hash, so resubmitting an equivalent surface form — merged
	// bursts, unrolled loops, different doc strings — is a cache hit.
	Program *program.Program `json:"program,omitempty"`
	// System names the persistency system (baseline … tsoper).
	System string `json:"system"`
	// Scale multiplies the profile's OpsPerCore (0 or 1 = full size).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives workload generation (0 = 42, the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// FaultPreset names a faultplan preset to inject (see faultplan).
	FaultPreset string `json:"fault_preset,omitempty"`
}

// plan is a resolved, runnable spec plus its content address.
type plan struct {
	bench trace.Profile
	prog  *program.Program // non-nil for program jobs
	est   program.Estimate // program jobs: admission cost
	cfg   machine.Config
	scale float64
	seed  int64
	key   string
}

// keyDoc is the cache key's preimage: everything that determines the
// result bytes, nothing that doesn't.
type keyDoc struct {
	Profile trace.Profile   `json:"profile"` // resolved and scaled
	Seed    int64           `json:"seed"`
	Config  json.RawMessage `json:"config"` // machine.Config.CanonicalJSON
}

// programKeyDoc is the program job's preimage: the program enters through
// its canonical hash, so equivalent surface forms share the key.
type programKeyDoc struct {
	ProgramHash string          `json:"program_hash"`
	Seed        int64           `json:"seed"`
	Config      json.RawMessage `json:"config"`
}

// resolve validates the spec against the roster and builds the machine
// configuration and cache key.
func (s JobSpec) resolve() (plan, error) {
	var p trace.Profile
	if s.Program != nil {
		if s.Bench != "" {
			return plan{}, fmt.Errorf("service: spec names bench %q and carries a program; pick one", s.Bench)
		}
		if s.Scale != 0 && s.Scale != 1 {
			return plan{}, fmt.Errorf("service: scale does not apply to program jobs (the profile instruction carries its own)")
		}
		if err := s.Program.Validate(); err != nil {
			return plan{}, fmt.Errorf("service: %w", err)
		}
	} else {
		var ok bool
		p, ok = trace.ByName(s.Bench)
		if !ok {
			return plan{}, fmt.Errorf("service: unknown benchmark %q", s.Bench)
		}
	}
	var kind machine.SystemKind
	found := false
	for _, k := range machine.Systems() {
		if k.String() == s.System {
			kind, found = k, true
			break
		}
	}
	if !found {
		return plan{}, fmt.Errorf("service: unknown system %q", s.System)
	}
	if s.Scale < 0 {
		return plan{}, fmt.Errorf("service: scale must be positive, got %g", s.Scale)
	}
	scale := s.Scale
	if scale == 0 {
		scale = 1
	}
	seed := s.Seed
	if seed == 0 {
		seed = 42
	}

	cfg := machine.TableI(kind)
	if s.FaultPreset != "" {
		spec, ok := faultplan.Preset(s.FaultPreset)
		if !ok {
			return plan{}, fmt.Errorf("service: unknown fault preset %q (want one of %v)",
				s.FaultPreset, faultplan.PresetNames())
		}
		cfg.Faults = &spec
	}

	if s.Program != nil {
		est, err := harness.EstimateProgram(s.Program, cfg)
		if err != nil {
			return plan{}, fmt.Errorf("service: %w", err)
		}
		key, err := programCacheKey(s.Program, seed, cfg)
		if err != nil {
			return plan{}, err
		}
		return plan{prog: s.Program, est: est, cfg: cfg, scale: scale, seed: seed, key: key}, nil
	}
	key, err := cacheKey(p.Scale(scale), seed, cfg)
	if err != nil {
		return plan{}, err
	}
	return plan{bench: p, cfg: cfg, scale: scale, seed: seed, key: key}, nil
}

// CacheKey returns the spec's content address — the key its result is
// cached under. Two specs with the same key produce byte-identical results.
func (s JobSpec) CacheKey() (string, error) {
	pl, err := s.resolve()
	if err != nil {
		return "", err
	}
	return pl.key, nil
}

// cacheKey hashes (resolved profile, seed, canonical config).
func cacheKey(p trace.Profile, seed int64, cfg machine.Config) (string, error) {
	cc, err := cfg.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	doc, err := json.Marshal(keyDoc{Profile: p, Seed: seed, Config: cc})
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// programCacheKey hashes (canonical program hash, seed, canonical config).
func programCacheKey(p *program.Program, seed int64, cfg machine.Config) (string, error) {
	ph, err := p.Hash()
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	cc, err := cfg.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	doc, err := json.Marshal(programKeyDoc{ProgramHash: ph, Seed: seed, Config: cc})
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// jobState is a job's lifecycle position.
type jobState string

const (
	stateQueued   jobState = "queued"
	stateRunning  jobState = "running"
	stateDone     jobState = "done"
	stateFailed   jobState = "failed"
	stateCanceled jobState = "canceled"
)

func (st jobState) terminal() bool {
	return st == stateDone || st == stateFailed || st == stateCanceled
}

// job is one admitted request. Mutable fields are guarded by the server
// mutex; done closes exactly once on reaching a terminal state.
type job struct {
	id   string
	spec JobSpec
	plan plan

	state     jobState
	err       string
	cacheHit  bool
	result    []byte
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  telemetry.Progress
	subs      []chan telemetry.Progress
	done      chan struct{}
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Key is the job's content address (shared by every identical spec).
	Key string `json:"key"`
	// CacheHit marks a submission answered from the result cache;
	// Deduped marks one coalesced onto an identical in-flight job.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Deduped  bool   `json:"deduped,omitempty"`
	Error    string `json:"error,omitempty"`
	// Progress is the latest sampled position of a running job.
	Progress telemetry.Progress `json:"progress"`
	// LatencyMS is submit-to-finish wall time for terminal jobs.
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// status snapshots the job under the server mutex.
func (s *Server) status(j *job, deduped bool) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    string(j.state),
		Spec:     j.spec,
		Key:      j.plan.key,
		CacheHit: j.cacheHit,
		Deduped:  deduped,
		Error:    j.err,
		Progress: j.progress,
	}
	if j.state.terminal() && !j.finished.IsZero() {
		st.LatencyMS = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}
