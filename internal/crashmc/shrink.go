package crashmc

import (
	"errors"
	"fmt"

	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Failure pinpoints one failing crash injection precisely enough to
// reproduce it from scratch: the full workload profile, the system, the
// coherence backend, the core count, the generation seed, the crash cycle,
// and the armed fault.
type Failure struct {
	Profile trace.Profile `json:"profile"`
	System  string        `json:"system"`
	// Coherence names the coherence backend (empty means SLC).
	Coherence string `json:"coherence,omitempty"`
	Cores     int    `json:"cores"`
	Seed      int64  `json:"seed"`
	At        uint64 `json:"at"`
	Fault     string `json:"fault,omitempty"`
	Rule      string `json:"rule,omitempty"`
	// Non-Table-I pressure knobs, carried so the artifact reproduces
	// stand-alone (zero means the Table I value).
	AGBLinesPerSlice int `json:"agb_lines_per_slice,omitempty"`
	AGLimit          int `json:"ag_limit,omitempty"`
	EvictBufEntries  int `json:"evict_buf_entries,omitempty"`
}

func (f Failure) String() string {
	s := fmt.Sprintf("%s/%s cores=%d ops=%d seed=%d crash@%d fault=%s rule=%s",
		f.Profile.Name, f.System, f.Cores, f.Profile.OpsPerCore, f.Seed, f.At, f.Fault, f.Rule)
	if f.Coherence != "" {
		s += " coherence=" + f.Coherence
	}
	return s
}

// Reproduce re-runs the failure and returns the checker's violation (nil
// when the state is consistent, i.e. the failure no longer reproduces). A
// failure that cannot run at all (an unknown name, a configuration the
// machine rejects) returns an error that is not a *checker.Violation.
func Reproduce(f Failure) error {
	kind, ok := parseSystem(f.System)
	if !ok {
		return fmt.Errorf("crashmc: unknown system %q", f.System)
	}
	coh, err := machine.ParseCoherenceKind(f.Coherence)
	if err != nil {
		return fmt.Errorf("crashmc: %w", err)
	}
	cfg := machine.TableI(kind)
	cfg.Coherence = coh
	if f.Cores > 0 {
		cfg.Cores = f.Cores
	}
	if f.AGBLinesPerSlice > 0 {
		cfg.AGB.LinesPerSlice = f.AGBLinesPerSlice
	}
	if f.AGLimit > 0 {
		cfg.AGLimit = f.AGLimit
	}
	if f.EvictBufEntries > 0 {
		cfg.EvictBufEntries = f.EvictBufEntries
	}
	if f.Fault != "" {
		fault, ok := machine.ParseCrashFault(f.Fault)
		if !ok {
			return fmt.Errorf("crashmc: unknown fault %q", f.Fault)
		}
		cfg.CrashFault = fault
	}
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	w := trace.Generate(f.Profile, cfg.Cores, f.Seed)
	return checker.Check(m.RunWithCrash(w, sim.Time(f.At)))
}

// Shrink minimizes a failing case while the same checker rule keeps
// firing: it greedily halves the per-core op count, steps the core count
// down toward two, and halves the crash cycle. The returned failure is the
// smallest variant found (the input itself if nothing smaller still
// fails); shrinking a non-failing input returns it unchanged.
func Shrink(f Failure) Failure {
	if !failsSame(f) {
		return f
	}
	cur := f
	for cur.Profile.OpsPerCore > 64 {
		cand := cur
		cand.Profile.OpsPerCore /= 2
		if !failsSame(cand) {
			break
		}
		cur = cand
	}
	for cur.Cores > 2 {
		cand := cur
		cand.Cores--
		if !failsSame(cand) {
			break
		}
		cur = cand
	}
	for cur.At > 1 {
		cand := cur
		cand.At /= 2
		if !failsSame(cand) {
			break
		}
		cur = cand
	}
	return cur
}

// failsSame reports whether the failure reproduces as a checker violation
// with the same rule (or with any rule, when the original rule is unknown).
// A failure that cannot run does not reproduce.
func failsSame(f Failure) bool {
	var v *checker.Violation
	return errors.As(Reproduce(f), &v) && (f.Rule == "" || v.Rule == f.Rule)
}

func parseSystem(name string) (machine.SystemKind, bool) {
	for _, k := range machine.Systems() {
		if k.String() == name {
			return k, true
		}
	}
	return machine.TSOPER, false
}
