package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/checker"
	"repro/internal/crashmc"
	"repro/internal/faultplan"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Options configures one exploration of a litmus test. Every exploration
// runs TSOPER, crashes at up to 48 harvested points per perturbation
// (crashBudget), and runs the crash-consistency checker on every crash
// state.
type Options struct {
	// Scheduler selects the event-queue implementation; explorations under
	// both schedulers must produce identical Results.
	Scheduler sim.SchedulerKind
	// Coherence selects the coherence backend (default SLC). Conformance is
	// protocol-independent: the reached durable outcomes must satisfy the
	// oracle on every backend.
	Coherence machine.CoherenceKind
	// Faults, when non-nil, runs every crash under the runtime
	// fault-injection plan (NVM/NoC/AGB failures with resilience recovery).
	Faults *faultplan.Spec
	// Fault, when not FaultNone, corrupts every recovered crash state —
	// mutation testing of the oracle itself. A conforming run under an
	// injected fault is a missed kill.
	Fault machine.CrashFault
	// Perturbs lists the interleaving perturbations to sweep (default
	// DefaultPerturbs()).
	Perturbs []Perturb
	// Coverage also requires every allowed outcome to be reached. On by
	// default via Default(); disable under fault plans, where injected
	// failures legitimately narrow the reachable set.
	Coverage bool

	// replay, set only by tests, takes the crash states from
	// crashmc.Replay instead of crashmc.Sweep: the reference the forked
	// Results must match byte for byte.
	replay bool
}

// Default returns the standard conformance options: coverage on, default
// perturbation sweep.
func Default() Options {
	return Options{Coverage: true}
}

// crashBudget caps the harvested crash points per perturbation.
const crashBudget = 48

// DefaultPerturbs returns the standard interleaving sweep: the unperturbed
// lowering, forward and backward core staggers at several scales (the
// largest wide enough for one core to drain whole persist epochs before
// another starts), core-order permutations at that scale, solo-core and
// all-but-one delays, and seeded inter-op jitter streams.
func DefaultPerturbs() []Perturb {
	ps := []Perturb{{}}
	for _, d := range []uint32{3, 17, 64, 211, 701} {
		ps = append(ps,
			Perturb{Skew: []uint32{0, d, 2 * d, 3 * d}},
			Perturb{Skew: []uint32{3 * d, 2 * d, d, 0}})
	}
	// The remaining orderings of the first three cores (identity and
	// reversal are covered by the staggers above): crash points along one
	// widely-spread trajectory realize every per-core progress mix of it.
	for _, ord := range [][3]uint32{{1, 0, 2}, {2, 0, 1}, {0, 2, 1}, {1, 2, 0}} {
		ps = append(ps, Perturb{Skew: []uint32{701 * ord[0], 701 * ord[1], 701 * ord[2], 3 * 701}})
	}
	for c := 0; c < 4; c++ {
		solo := make([]uint32, 4)
		solo[c] = 701
		ps = append(ps, Perturb{Skew: solo})
		rest := []uint32{701, 701, 701, 701}
		rest[c] = 0
		ps = append(ps, Perturb{Skew: rest})
	}
	for seed := int64(1); seed <= 4; seed++ {
		ps = append(ps, Perturb{Jitter: seed})
	}
	return ps
}

// Violation is one conformance failure.
type Violation struct {
	// Kind is one of "forbidden", "unallowed", "checker-disagreement",
	// "coverage", "stall", or "setup".
	Kind string `json:"kind"`
	// Outcome is the durable outcome involved (empty for setup failures).
	Outcome string `json:"outcome,omitempty"`
	// Perturb and At locate the crash that exposed it.
	Perturb string `json:"perturb,omitempty"`
	At      uint64 `json:"at,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Kind)
	if v.Outcome != "" {
		fmt.Fprintf(&b, " [%s]", v.Outcome)
	}
	if v.Perturb != "" {
		fmt.Fprintf(&b, " perturb=%s at=%d", v.Perturb, v.At)
	}
	if v.Detail != "" {
		b.WriteString(": ")
		b.WriteString(v.Detail)
	}
	return b.String()
}

// maxViolations caps the recorded violation list; the count keeps running.
const maxViolations = 16

// Witness locates the first crash that reached an outcome.
type Witness struct {
	Perturb string `json:"perturb"`
	At      uint64 `json:"at"`
}

// Result is the outcome of exploring one test under one configuration. Its
// JSON form is deterministic: two explorations that observe the same
// behavior serialize byte-identically (the cross-scheduler gate).
type Result struct {
	Test        string `json:"test"`
	System      string `json:"system"`
	FaultPreset string `json:"fault_preset,omitempty"`
	CrashFault  string `json:"crash_fault,omitempty"`
	// Protocol is the coherence backend; omitted for the default SLC so
	// pre-existing results/litmus.json artifacts keep their exact shape.
	Protocol string `json:"protocol,omitempty"`

	// Reached is the sorted set of durable outcomes the machine exposed.
	Reached []string `json:"reached"`
	// Allowed echoes the test's declared allowed set.
	Allowed []string `json:"allowed"`
	// Witnesses maps each reached outcome to the first crash exposing it.
	Witnesses map[string]Witness `json:"witnesses,omitempty"`

	// Perturbs and Points count the sweep; FaultApplied counts crash states
	// the injected CrashFault found a target in.
	Perturbs     int `json:"perturbs"`
	Points       int `json:"points"`
	FaultApplied int `json:"fault_applied,omitempty"`

	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int         `json:"total_violations,omitempty"`
}

// Conforms reports whether the exploration found no violations.
func (r *Result) Conforms() bool { return r.TotalViolations == 0 }

// Err summarizes the violations as an error (nil when conforming).
func (r *Result) Err() error {
	if r.Conforms() {
		return nil
	}
	lines := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		lines = append(lines, "  "+v.String())
	}
	more := ""
	if r.TotalViolations > len(r.Violations) {
		more = fmt.Sprintf("\n  ... and %d more", r.TotalViolations-len(r.Violations))
	}
	return fmt.Errorf("litmus: %s: %d violation(s):\n%s%s",
		r.Test, r.TotalViolations, strings.Join(lines, "\n"), more)
}

func (r *Result) violate(v Violation) {
	r.TotalViolations++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, v)
	}
}

// config builds the machine configuration for a test under the options.
func (o Options) config(cores int) machine.Config {
	cfg := machine.TableI(machine.TSOPER)
	cfg.Cores = cores
	cfg.Scheduler = o.Scheduler
	cfg.Coherence = o.Coherence
	cfg.Faults = o.Faults
	cfg.CrashFault = o.Fault
	return cfg
}

// Explore drives the test through the machine across the perturbation sweep
// and every harvested crash point, and checks conformance: soundness of
// every reached durable outcome, coverage of the allowed set, and agreement
// with the crash-consistency checker.
func Explore(t *Test, o Options) *Result {
	if o.Perturbs == nil {
		o.Perturbs = DefaultPerturbs()
	}

	r := &Result{
		Test:      t.Name,
		System:    machine.TSOPER.String(),
		Allowed:   append([]string(nil), t.Allowed...),
		Witnesses: map[string]Witness{},
		Perturbs:  len(o.Perturbs),
	}
	if o.Faults != nil {
		r.FaultPreset = o.Faults.Name
	}
	if o.Fault != machine.FaultNone {
		r.CrashFault = o.Fault.String()
	}
	if o.Coherence != machine.CoherenceSLC {
		r.Protocol = o.Coherence.String()
	}
	if err := t.Validate(); err != nil {
		r.violate(Violation{Kind: "setup", Detail: err.Error()})
		return r
	}

	allowed := map[string]bool{}
	for _, a := range t.Allowed {
		allowed[a] = true
	}
	forbidden := map[string]bool{}
	for _, f := range t.Forbidden {
		forbidden[f] = true
	}
	reached := map[string]bool{}

	sweep := crashmc.Sweep
	if o.replay {
		sweep = crashmc.Replay
	}
	for _, p := range o.Perturbs {
		lo := t.lower(p)
		cfg := o.config(len(t.Cores))
		points, horizon, err := crashmc.HarvestWorkload(cfg, lo.w, crashBudget)
		if err != nil {
			r.violate(Violation{Kind: "setup", Perturb: p.String(),
				Detail: "harvest: " + err.Error()})
			continue
		}
		// An explicit first-cycle crash pins the initial image and a
		// post-horizon crash the complete one. The harvest is sorted, so
		// the points ascend and one machine advances through them all.
		points = append([]uint64{1}, append(points, horizon+16)...)

		err = sweep(cfg, lo.w, points, func(i int, cs *machine.CrashState) {
			at := points[i]
			r.Points++
			if cs.Stalled {
				r.violate(Violation{Kind: "stall", Perturb: p.String(), At: at,
					Detail: cs.Stall.Error()})
				return
			}
			if cs.FaultApplied {
				r.FaultApplied++
			}
			out := lo.outcome(cs.DurableOutcome(lo.lines))
			if !reached[out] {
				reached[out] = true
				r.Witnesses[out] = Witness{Perturb: p.String(), At: at}
			}
			outcomeOK := allowed[out]
			switch {
			case forbidden[out]:
				r.violate(Violation{Kind: "forbidden", Outcome: out,
					Perturb: p.String(), At: at})
			case !outcomeOK:
				r.violate(Violation{Kind: "unallowed", Outcome: out,
					Perturb: p.String(), At: at})
			}
			// The checker and the outcome oracle must agree: a state whose
			// image the model allows must pass the checker. (The converse —
			// checker-clean but unallowed — already reported above as
			// "unallowed" and equally implicates one oracle.)
			if err := checker.Check(cs); err != nil && outcomeOK {
				r.violate(Violation{Kind: "checker-disagreement",
					Outcome: out, Perturb: p.String(), At: at,
					Detail: err.Error()})
			}
		})
		if err != nil {
			r.violate(Violation{Kind: "setup", Detail: err.Error()})
			return r
		}
	}

	r.Reached = sortedKeys(reached)
	if o.Coverage {
		for _, a := range t.Allowed {
			if !reached[a] {
				r.violate(Violation{Kind: "coverage", Outcome: a,
					Detail: "allowed outcome never reached"})
			}
		}
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		a, b := r.Violations[i], r.Violations[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Outcome != b.Outcome {
			return a.Outcome < b.Outcome
		}
		return a.At < b.At
	})
	return r
}
