package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// workload is one benchmark workload, built from the seed by its
// constructor: the set-up the parent times as setup_s, which generates the
// inputs the passes will run and digests them.
type workload interface {
	// inputs is the SHA-256 of the generated inputs: equal seeds must give
	// equal digests.
	inputs() string
	// pass runs the timed, untraced work once and checks its outputs.
	pass() (*passResult, error)
	// trace runs the traced counterpart of one pass: the replica goes
	// through tr.replica (profiled, timed for trace_overhead_pct) with
	// spans around each public call. ref is the first untraced pass, whose
	// op counts the replica must reproduce. It returns the workload's own
	// per-layer metrics; the runner adds host.* and trace_overhead_pct.
	trace(tr *tracer, ref *passResult) (map[string]float64, error)
}

// passResult is what one untraced pass produced.
type passResult struct {
	ops      int      // operations attempted
	failed   int      // operations that failed a check
	digest   string   // SHA-256 of the pass's outputs
	problems []string // why checks failed, for the report
	// counts are the pass's op tallies the traced replica must reproduce.
	counts map[string]float64
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadInfo lists the workloads in run order with why each was chosen
// and how many Ps (GOMAXPROCS) each runs on. The litmus gate is sequential:
// on two Ps its ~12k garbage collections per pass spend about a third of
// the wall time in cross-CPU stop-the-world handoffs, which on a shared
// two-vCPU host also made it the noisiest workload. The paper sweep keeps
// its two harness workers but runs them on one P: two Ps made a pass only
// 1.33x faster, and whenever a neighbour slowed one vCPU the pass waited
// on the slower worker, so runs spread about twice as widely.
var workloadInfo = []struct {
	name, why string
	procs     int
	build     func(seed int64, short bool) (workload, error)
}{
	{"paper_sweep", "the paper's 15 -exp all harness entries at scale 0.5: the main user path, dominated by the simulation kernel", 1,
		func(seed int64, short bool) (workload, error) { return newPaperSweep(seed, short) }},
	{"crash_campaign", "tsoper-crash's checkpoint-compare campaign at 400 points per tuple (3,200 injections): crash-state capture and the checker dominate", 2,
		func(seed int64, short bool) (workload, error) { return newCrashCampaign(seed, short) }},
	{"litmus_gate", "the Px86 litmus corpus gate under three fault plans: ~33k short crash runs, so machine construction dominates", 1,
		func(seed int64, short bool) (workload, error) { return newLitmusGate(seed, short) }},
	{"service_jobs", "CI's tsoper-serve + tsoper-load smoke mix scaled to 1,000 closed-loop jobs: admission, hashing, the result cache and encoding", 2,
		func(seed int64, short bool) (workload, error) { return newServiceJobs(seed, short) }},
}

func buildWorkload(name string, seed int64, short bool) (workload, error) {
	for _, w := range workloadInfo {
		if w.name == name {
			return w.build(seed, short)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func knownWorkload(name string) bool {
	for _, w := range workloadInfo {
		if w.name == name {
			return true
		}
	}
	return false
}

// referenceSeed is the seed whose full-size outputs have committed digests.
const referenceSeed = 42

//go:embed testdata/digests.json
var digestsJSON []byte

// referenceDigest returns the committed output digest of a workload at the
// reference seed, or "" when the run has no reference (another seed, or a
// -short run); such runs check that every pass reproduces the first.
func referenceDigest(name string, seed int64, short bool) (string, error) {
	if seed != referenceSeed || short {
		return "", nil
	}
	var doc struct {
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(digestsJSON, &doc); err != nil {
		return "", fmt.Errorf("testdata/digests.json: %w", err)
	}
	return doc.Digests[name], nil
}

// parallel calls fn(0..n-1) on a pool of workers and returns when all are
// done.
func parallel(n, workers int, fn func(int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := range n {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestWorkloads hashes generated workloads in their serialized form.
func digestWorkloads(ws ...*trace.Workload) (string, error) {
	h := sha256.New()
	for _, w := range ws {
		if err := w.Save(h); err != nil {
			return "", fmt.Errorf("digesting inputs: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
