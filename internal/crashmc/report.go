package crashmc

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Injection is the outcome of one crash point.
type Injection struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	Seed      int64  `json:"seed"`
	At        uint64 `json:"at"`
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

// TupleSummary aggregates one benchmark x system cell.
type TupleSummary struct {
	Benchmark  string `json:"benchmark"`
	System     string `json:"system"`
	Points     int    `json:"points"`
	Partial    int    `json:"partial"`
	Violations int    `json:"violations"`
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
	// Tuples summarizes each cell; Violations holds every failing
	// injection in full.
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
	return fmt.Sprintf("%s: %d injections, %d partially-durable states, %d durable groups, %d violations",
		r.Name, r.Injections, r.PartialStates, r.DurableGroups, len(r.Violations))
}

// WriteJSON writes the indented artifact.
func (r *Report) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteJSONFile writes the artifact to path.
func (r *Report) WriteJSONFile(path string) error { return writeJSONFile(path, r) }

// writeJSON writes a campaign report as indented JSON.
func writeJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// writeJSONFile writes a campaign report to path as indented JSON.
func writeJSONFile(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
