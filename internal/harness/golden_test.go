package harness

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

// goldenRow pins the summary statistics of one benchmark x system cell.
// Any change here means the simulator's timing or bookkeeping moved — the
// diff should be explained in the commit that regenerates the file.
type goldenRow struct {
	Benchmark       string `json:"benchmark"`
	System          string `json:"system"`
	Cycles          uint64 `json:"cycles"`
	DrainCycles     uint64 `json:"drain_cycles"`
	Stores          uint64 `json:"stores"`
	Loads           uint64 `json:"loads"`
	CoherenceWrites uint64 `json:"coherence_writes"`
	PersistWrites   uint64 `json:"persist_writes"`
	NVMWrites       uint64 `json:"nvm_writes"`
	Groups          int    `json:"groups"`
	EvictBufMax     int    `json:"evict_buf_max"`
	AGBStalls       uint64 `json:"agb_stalls"`
	AGBOccupancyMax uint64 `json:"agb_occupancy_max"`
}

// goldenSystems covers the conventional baseline (MESI timing), the strict
// strawman, and the paper's system.
func goldenSystems() []struct {
	name string
	cfg  machine.Config
} {
	mesi := machine.TableI(machine.Baseline)
	mesi.Coherence = machine.CoherenceMESI
	return []struct {
		name string
		cfg  machine.Config
	}{
		{"mesi", mesi},
		{"stw", machine.TableI(machine.STW)},
		{"tsoper", machine.TableI(machine.TSOPER)},
	}
}

func goldenRows(t *testing.T) []goldenRow {
	t.Helper()
	o := Options{Scale: 0.05, Seed: 42}
	var rows []goldenRow
	for _, benchName := range []string{"radix", "ocean_cp", "dedup"} {
		bench, ok := trace.ByName(benchName)
		if !ok {
			t.Fatalf("benchmark %q missing from roster", benchName)
		}
		for _, sys := range goldenSystems() {
			r, err := RunConfigChecked(bench, sys.cfg, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", benchName, sys.name, err)
			}
			rows = append(rows, goldenRow{
				Benchmark:       benchName,
				System:          sys.name,
				Cycles:          uint64(r.Cycles),
				DrainCycles:     uint64(r.DrainCycles),
				Stores:          r.Stores,
				Loads:           r.Loads,
				CoherenceWrites: r.CoherenceWrites,
				PersistWrites:   r.PersistWrites,
				NVMWrites:       r.NVMWrites,
				Groups:          len(r.Groups),
				EvictBufMax:     r.EvictBufMax,
				AGBStalls:       r.AGBStalls,
				AGBOccupancyMax: r.Set.Dist("agb.occupancy_lines").Max(),
			})
		}
	}
	return rows
}

// TestGoldenSummaryStats locks the simulator's observable behavior: 3
// benchmarks x {MESI, STW, TSOPER} at scale 0.05 / seed 42 must reproduce
// testdata/golden.json exactly. Regenerate deliberately with
//
//	go test ./internal/harness/ -run TestGoldenSummaryStats -update
func TestGoldenSummaryStats(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	rows := goldenRows(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d rows", path, len(rows))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("golden file has %d rows, simulator produced %d (regenerate with -update)", len(want), len(rows))
	}
	for i, got := range rows {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s/%s drifted:\n  got  %+v\n  want %+v", got.Benchmark, got.System, got, want[i])
		}
	}
}

// The golden rows must not depend on scheduling or environment: two
// back-to-back runs in-process must agree field for field.
func TestGoldenRowsDeterministic(t *testing.T) {
	a := goldenRows(t)
	b := goldenRows(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("summary stats differ between identical runs")
	}
}
