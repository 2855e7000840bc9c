package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/machine"
)

// ProtocolRow is one benchmark × coherence-backend cell of the bake-off.
type ProtocolRow struct {
	Bench    string `json:"bench"`
	Protocol string `json:"protocol"`
	// Cycles is the execution horizon, DrainCycles the drain-complete
	// horizon (the strict-persistency figure of merit).
	Cycles      uint64 `json:"cycles"`
	DrainCycles uint64 `json:"drain_cycles"`
	// CoherenceWrites and PersistWrites expose the traffic the protocols
	// trade: SLC pays serial invalidation walks, tardis pays none but
	// renews expired leases instead.
	CoherenceWrites uint64 `json:"coherence_writes"`
	PersistWrites   uint64 `json:"persist_writes"`
	// Renewals counts tardis lease-renewal round trips (0 elsewhere).
	Renewals uint64 `json:"renewals,omitempty"`
	// VsSLC is DrainCycles relative to the SLC cell of the same benchmark.
	VsSLC float64 `json:"vs_slc"`
}

// ProtocolBakeoffResult is the three-backend comparison artifact: the same
// strict-persistency system and workloads on MESI, SLC, and tardis.
type ProtocolBakeoffResult struct {
	System string        `json:"system"`
	Rows   []ProtocolRow `json:"rows"`
	// AvgVsSLC maps protocol name to its mean drain-horizon ratio vs SLC.
	AvgVsSLC map[string]float64 `json:"avg_vs_slc"`
}

// ProtocolBakeoff runs every benchmark under TSOPER on each coherence
// backend. Durable semantics are identical across backends (the litmus and
// crashmc gates pin that); what the bake-off measures is the timing cost of
// each protocol's ordering machinery. It sets every backend itself, so
// Options.Protocol does not apply.
func ProtocolBakeoff(o Options) *ProtocolBakeoffResult {
	o.Protocol = machine.CoherenceSLC
	protos := machine.Coherences()
	var cfgs []machine.Config
	slc := 0
	for j, proto := range protos {
		cfg := machine.TableI(machine.TSOPER)
		cfg.Coherence = proto
		cfgs = append(cfgs, cfg)
		if proto == machine.CoherenceSLC {
			slc = j
		}
	}
	benches := o.benchmarks()
	res := grid(o, benches, cfgs...)
	out := &ProtocolBakeoffResult{System: machine.TSOPER.String(), AvgVsSLC: map[string]float64{}}
	ratios := map[string][]float64{}
	for i, b := range benches {
		for j, r := range res[i] {
			row := ProtocolRow{
				Bench:           b.Name,
				Protocol:        protos[j].String(),
				Cycles:          uint64(r.Cycles),
				DrainCycles:     uint64(r.DrainCycles),
				CoherenceWrites: r.CoherenceWrites,
				PersistWrites:   r.TotalPersistWrites,
				Renewals:        r.Set.CounterValue("tardis.renewals"),
				VsSLC:           float64(r.DrainCycles) / float64(res[i][slc].DrainCycles),
			}
			out.Rows = append(out.Rows, row)
			ratios[row.Protocol] = append(ratios[row.Protocol], row.VsSLC)
		}
	}
	for proto, rs := range ratios {
		out.AvgVsSLC[proto] = mean(rs)
	}
	return out
}

func (a *ProtocolBakeoffResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Coherence-protocol bake-off (%s, drain horizon)\n", a.System)
	for i, r := range a.Rows {
		if i%len(machine.Coherences()) == 0 {
			fmt.Fprintf(&b, "  %s\n", r.Bench)
		}
		fmt.Fprintf(&b, "    %-7s exec %10d  drain %10d  coh-writes %8d  persists %8d",
			r.Protocol, r.Cycles, r.DrainCycles, r.CoherenceWrites, r.PersistWrites)
		if r.Renewals > 0 {
			fmt.Fprintf(&b, "  renewals %7d", r.Renewals)
		}
		fmt.Fprintf(&b, "  (%.3fx vs slc)\n", r.VsSLC)
	}
	for _, proto := range machine.Coherences() {
		fmt.Fprintf(&b, "  average %-7s %.3fx vs slc\n", proto.String(), a.AvgVsSLC[proto.String()])
	}
	return b.String()
}

// protocolBenchResult is one entry of results/protocols.json; that
// committed file fixes the JSON shape.
type protocolBenchResult struct {
	NsPerOp    float64 `json:"ns_per_op"`
	Iterations int64   `json:"iterations"`
}

// BenchEntries renders the bake-off as the map results/protocols.json
// holds, keyed Protocols/<bench>/<protocol>, with ns_per_op carrying the
// simulated drain horizon in cycles.
func (a *ProtocolBakeoffResult) BenchEntries() map[string]protocolBenchResult {
	out := make(map[string]protocolBenchResult)
	for _, r := range a.Rows {
		out[fmt.Sprintf("Protocols/%s/%s", r.Bench, r.Protocol)] =
			protocolBenchResult{NsPerOp: float64(r.DrainCycles), Iterations: 1}
	}
	return out
}

// WriteBenchJSONFile writes BenchEntries to path as indented JSON, the
// format of results/protocols.json.
func (a *ProtocolBakeoffResult) WriteBenchJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a.BenchEntries()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
