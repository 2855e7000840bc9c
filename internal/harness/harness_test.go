package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
)

// tiny returns options that keep harness tests fast while exercising every
// code path: two contrasting benchmarks at a small scale.
func tiny() Options {
	return Options{Scale: 0.08, Seed: 3, Benchmarks: []string{"radix", "dedup"}}
}

// grid returns res[i][j] = benches[i] under cfgs[j], the result a direct
// run of that cell gives.
func TestGridShape(t *testing.T) {
	o := tiny()
	o.Workers = 3
	benches := o.benchmarks()
	cfgs := tableI(machine.Baseline, machine.TSOPER)
	res := grid(o, benches, cfgs...)
	if len(res) != 2 {
		t.Fatalf("benchmarks: %d", len(res))
	}
	for i, row := range res {
		if len(row) != 2 {
			t.Fatalf("%s: systems %d", benches[i].Name, len(row))
		}
		for j, r := range row {
			want, err := RunConfigChecked(benches[i], cfgs[j], o)
			if err != nil {
				t.Fatal(err)
			}
			if r == nil || r.Cycles != want.Cycles || r.Benchmark != want.Benchmark {
				t.Fatalf("%s/%v: grid cell does not match a direct run", benches[i].Name, cfgs[j].System)
			}
		}
	}
}

// A failing cell panics on grid's caller, where it can be recovered, and
// the message names the cell.
func TestGridPanicNamesCell(t *testing.T) {
	o := tiny()
	cfg := machine.TableI(machine.TSOPER)
	cfg.Cores = 0
	got := func() (r any) {
		defer func() { r = recover() }()
		grid(o, o.benchmarks(), cfg)
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "radix") || !strings.Contains(msg, machine.TSOPER.String()) {
		t.Fatalf("grid panic %v does not name the cell", got)
	}
}

// Every experiment prints the same bytes whatever the worker count.
func TestExperimentsIndependentOfWorkers(t *testing.T) {
	for _, e := range Experiments() {
		o := tiny()
		o.Workers = 1
		serial := e.Run(o).String()
		o.Workers = 3
		if parallel := e.Run(o).String(); parallel != serial {
			t.Errorf("%s: 3 workers print\n%s\n1 worker prints\n%s", e.Name, parallel, serial)
		}
	}
}

func TestFigure11(t *testing.T) {
	f := Figure11(tiny())
	if len(f.Rows) != 2 {
		t.Fatalf("rows: %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		for s, v := range r.Normalized {
			if v < 0.5 || v > 30 {
				t.Fatalf("%s/%v implausible normalization %f", r.Bench, s, v)
			}
		}
	}
	if f.Avg[machine.STW] <= f.Avg[machine.TSOPER] {
		t.Errorf("STW avg (%f) should exceed TSOPER avg (%f)", f.Avg[machine.STW], f.Avg[machine.TSOPER])
	}
	out := f.String()
	if !strings.Contains(out, "Figure 11") || !strings.Contains(out, "average") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure12(t *testing.T) {
	f := Figure12(tiny())
	if len(f.Rows) != 2 {
		t.Fatalf("rows: %d", len(f.Rows))
	}
	if !strings.Contains(f.String(), "normalized to TSOPER") {
		t.Fatal("render missing header")
	}
}

func TestFigure13(t *testing.T) {
	f := Figure13(tiny())
	if f.FracUnder10 <= 0 || f.FracUnder10 > 1 {
		t.Fatalf("FracUnder10=%f", f.FracUnder10)
	}
	if f.FracOver80 > 0.05 {
		t.Fatalf("too many oversized AGs: %f (limit is 80)", f.FracOver80)
	}
	prev := 0.0
	for _, bin := range f.Pooled {
		if bin.Frac < prev {
			t.Fatal("pooled CDF not monotone")
		}
		prev = bin.Frac
	}
	if !strings.Contains(f.String(), "Figure 13") {
		t.Fatal("render missing header")
	}
}

func TestFigure14(t *testing.T) {
	f := Figure14(tiny())
	for _, r := range f.Rows {
		if r.Persist[machine.TSOPER] <= 0 {
			t.Fatalf("%s: TSOPER persist traffic missing", r.Bench)
		}
		if r.Coherence[machine.TSOPER] <= 0 {
			t.Fatalf("%s: TSOPER coherence traffic missing", r.Bench)
		}
	}
	if !strings.Contains(f.String(), "Figure 14") {
		t.Fatal("render missing header")
	}
}

func TestFigure15(t *testing.T) {
	o := tiny()
	o.Benchmarks = nil // Figure15 always runs ocean_cp
	f := Figure15(o)
	if f.FracSFROne < 0.5 {
		t.Errorf("expected mostly single-store SFRs, got %.2f", f.FracSFROne)
	}
	if f.HWRPPersists <= f.TSOPERPersists {
		t.Errorf("HW-RP persists (%d) should exceed TSOPER's (%d) on ocean_cp",
			f.HWRPPersists, f.TSOPERPersists)
	}
	if f.SFRTimeline.Len() == 0 || f.AGTimeline.Len() == 0 {
		t.Fatal("timelines empty")
	}
	if !strings.Contains(f.String(), "ocean_cp") {
		t.Fatal("render missing benchmark")
	}
}

func TestLists(t *testing.T) {
	l := Lists(tiny())
	if len(l.Rows) != 2 {
		t.Fatalf("rows: %d", len(l.Rows))
	}
	if l.AvgPersist < l.AvgCoherence {
		t.Errorf("persist lists (%.2f) should be at least as long as coherence lists (%.2f)",
			l.AvgPersist, l.AvgCoherence)
	}
	if !strings.Contains(l.String(), "average") {
		t.Fatal("render missing average")
	}
}

func TestAGBSweep(t *testing.T) {
	o := tiny()
	a := AGBSweep(o)
	if len(a.Rows) != 8 { // 2 benches x 4 sizes
		t.Fatalf("rows: %d", len(a.Rows))
	}
	if !strings.Contains(a.String(), "AGB size sweep") {
		t.Fatal("render missing header")
	}
}

func TestEvictSweep(t *testing.T) {
	a := EvictSweep(tiny())
	if len(a.Rows) != 8 {
		t.Fatalf("rows: %d", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.Entries == 16 && r.Stalls != 0 {
			t.Errorf("%s: 16-entry eviction buffer should see no pressure (stalls=%d)", r.Bench, r.Stalls)
		}
	}
}

func TestAGBOrganizations(t *testing.T) {
	a := AGBOrganizations(tiny())
	if len(a.Rows) != 2 {
		t.Fatalf("rows: %d", len(a.Rows))
	}
}

func TestBSPEpochSweep(t *testing.T) {
	a := BSPEpochSweep(tiny())
	if len(a.Rows) != 6 {
		t.Fatalf("rows: %d", len(a.Rows))
	}
	// Shrinking the epoch to 80 stores should not be slower than 10,000.
	byBench := map[string]map[int]float64{}
	for _, r := range a.Rows {
		if byBench[r.Bench] == nil {
			byBench[r.Bench] = map[int]float64{}
		}
		byBench[r.Bench][r.EpochStores] = r.VsTSOPER
	}
	for bench, m := range byBench {
		if m[80] > m[10000]*1.05 {
			t.Errorf("%s: 80-store epochs (%.3f) slower than 10000-store (%.3f)", bench, m[80], m[10000])
		}
	}
}

func TestSLCOverhead(t *testing.T) {
	a := SLCOverhead(tiny())
	if len(a.Rows) != 2 {
		t.Fatalf("rows: %d", len(a.Rows))
	}
	// SLC should be within a few percent of MESI, never wildly off.
	if a.Avg < 0.95 || a.Avg > 1.15 {
		t.Fatalf("SLC/MESI = %.3f, expected near-parity (~1.03 in the paper)", a.Avg)
	}
	if !strings.Contains(a.String(), "MESI") {
		t.Fatal("render missing header")
	}
}

// SLCOverhead compares two backends it names itself; -protocol must not
// collapse both columns onto one backend.
func TestSLCOverheadIgnoresProtocol(t *testing.T) {
	o := tiny()
	o.Protocol = machine.CoherenceTardis
	if got, want := SLCOverhead(o).Rows, SLCOverhead(tiny()).Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("with Protocol tardis: %+v, want %+v", got, want)
	}
}

func TestCoherenceBackendMatrix(t *testing.T) {
	// Every system accepts every coherence backend: retention of dirty and
	// invalid-pending copies is governed by the system (destructive()),
	// while the backend only sets invalidation timing and the source of
	// persist-ordering answers.
	for _, sys := range machine.Systems() {
		for _, coh := range machine.Coherences() {
			cfg := machine.TableI(sys)
			cfg.Coherence = coh
			if _, err := machine.New(cfg); err != nil {
				t.Errorf("%v on %v rejected: %v", sys, coh, err)
			}
		}
	}
	if machine.CoherenceMESI.String() != "mesi" ||
		machine.CoherenceSLC.String() != "slc" ||
		machine.CoherenceTardis.String() != "tardis" {
		t.Fatal("coherence kind names")
	}
	cfg := machine.TableI(machine.TSOPER)
	cfg.Coherence = machine.CoherenceKind(99)
	if _, err := machine.New(cfg); err == nil {
		t.Fatal("unknown coherence backend must be rejected")
	}
}

func TestWhisper(t *testing.T) {
	a := Whisper(tiny())
	if len(a.Rows) != 2 {
		t.Fatalf("rows: %d", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.SelectPersists >= r.FullPersists {
			t.Errorf("%s: selective persists %d not below full %d",
				r.Bench, r.SelectPersists, r.FullPersists)
		}
	}
	if !strings.Contains(a.String(), "Selective persistency") {
		t.Fatal("render missing header")
	}
}

func TestTableIText(t *testing.T) {
	out := TableIText()
	for _, want := range []string{"Table I", "Atomic Group Buffer", "NVM", "SLC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestProtocolComplexityText(t *testing.T) {
	out := ProtocolComplexityText()
	if !strings.Contains(out, "SLC") || !strings.Contains(out, "MOESI_CMP_directory") {
		t.Fatalf("complexity table:\n%s", out)
	}
}

// The zero Options run the full roster at full scale; named defaults apply
// only when no benchmarks are set.
func TestZeroOptions(t *testing.T) {
	var o Options
	if o.scale() != 1.0 {
		t.Fatalf("zero scale: %v", o.scale())
	}
	if (Options{Scale: -1}).scale() != 1.0 {
		t.Fatal("negative scale should clamp")
	}
	if len(o.benchmarks()) != 22 {
		t.Fatalf("default roster: %d", len(o.benchmarks()))
	}
	if got := o.benchmarks("radix", "dedup"); len(got) != 2 || got[0].Name != "radix" {
		t.Fatalf("named defaults: %v", got)
	}
	o.Benchmarks = []string{"canneal"}
	if got := o.benchmarks("radix"); len(got) != 1 || got[0].Name != "canneal" {
		t.Fatalf("Benchmarks must override the defaults: %v", got)
	}
}
