package crashmc

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/faultplan"
)

// Injection is the outcome of one crash point.
type Injection struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	// Schedule names the fault plan the machine ran under ("" for none).
	Schedule string `json:"schedule,omitempty"`
	Seed     int64  `json:"seed"`
	At       uint64 `json:"at"`
	// Groups is the journal size at the crash; Durable counts groups that
	// survived; Partial marks the interesting states (some but not all
	// groups durable).
	Groups  int  `json:"groups"`
	Durable int  `json:"durable"`
	Partial bool `json:"partial"`
	// Fault names the injected corruption (mutation campaigns only);
	// FaultApplied reports whether the state offered a target for it.
	Fault        string `json:"fault,omitempty"`
	FaultApplied bool   `json:"fault_applied,omitempty"`
	// Violation is the checker's full message ("" = consistent); Rule is
	// the violated rule name.
	Violation string `json:"violation,omitempty"`
	Rule      string `json:"rule,omitempty"`
	// Shrunk is the minimized reproduction of the failure, when shrinking
	// was requested.
	Shrunk *Failure `json:"shrunk,omitempty"`
}

// TupleSummary aggregates one benchmark x system x schedule cell.
type TupleSummary struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	// Schedule names the tuple's fault plan ("" for the fault-free tuple).
	// It and the fields after Violations are set only in campaigns with a
	// schedule axis (Spec.Schedules).
	Schedule   string `json:"schedule,omitempty"`
	Points     int    `json:"points"`
	Partial    int    `json:"partial"`
	Violations int    `json:"violations"`
	// DrainCycles is the harvest run's drain horizon (0 when it stalled or
	// lost persists); OverheadPct is its slowdown against the fault-free
	// tuple of the same workload and system; Counts is its fault ledger.
	DrainCycles uint64            `json:"drain_cycles,omitempty"`
	OverheadPct float64           `json:"overhead_pct,omitempty"`
	Counts      *faultplan.Counts `json:"counts,omitempty"`
}

// Report is the campaign artifact written for CI.
type Report struct {
	Name     string  `json:"name"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Strategy string  `json:"strategy"`
	// Protocol is the coherence backend the campaign ran on; omitted for
	// the default SLC so pre-existing artifacts keep their exact shape.
	Protocol string `json:"protocol,omitempty"`
	// Injections counts crash points executed; PartialStates the ones
	// that caught the machine mid-persist; DurableGroups the durable
	// groups accumulated across all states (evidence the campaign
	// exercised non-trivial frontiers).
	Injections    int `json:"injections"`
	PartialStates int `json:"partial_states"`
	DurableGroups int `json:"durable_groups"`
	// FaultsInjected and Recoveries total the fault ledgers of the tuples
	// under a fault plan: faults injected, and the recovery actions
	// (retries, retransmissions, redirects) taken.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Recoveries     uint64 `json:"recoveries,omitempty"`
	// Tuples summarizes each cell; Violations holds every failing
	// injection in full, and every harvest run that stalled or lost
	// persists (At is the cycle it stopped at; no crash was injected).
	Tuples     []*TupleSummary `json:"tuples"`
	Violations []Injection     `json:"violations,omitempty"`
	// Kills is the mutation-testing matrix (mutation campaigns only).
	Kills []Kill `json:"kills,omitempty"`
	// Details holds every injection, in deterministic campaign order, when
	// the spec asked for them (Spec.Detail).
	Details []Injection `json:"details,omitempty"`
}

// Clean reports whether the campaign found no violations and no surviving
// mutants.
func (r *Report) Clean() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, k := range r.Kills {
		if !k.Killed {
			return false
		}
	}
	return true
}

// Summary renders a one-line human digest.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%s: %d injections, %d partially-durable states, %d durable groups, %d violations",
		r.Name, r.Injections, r.PartialStates, r.DurableGroups, len(r.Violations))
	if r.FaultsInjected > 0 {
		s += fmt.Sprintf(", %d faults injected, %d recovery actions", r.FaultsInjected, r.Recoveries)
	}
	return s
}

// WriteJSON writes the indented artifact.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the artifact to path.
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
