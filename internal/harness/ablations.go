package harness

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// sweepBenches is a small, contention-diverse subset for ablations.
var sweepBenches = []string{"radix", "ocean_cp", "bodytrack", "dedup"}

// AGBSweepResult reports the AGB-size ablation (§I: the 10 KB AGB can be
// cut to one eighth — 1.25 KB per channel — without significant impact).
type AGBSweepResult struct {
	Rows []AGBSweepRow
}

// AGBSweepRow is one (benchmark, AGB size) sample.
type AGBSweepRow struct {
	Bench string
	// LinesPerSlice is the AGB slice capacity; AGLimit tracks it (an AG
	// cannot exceed what the buffer guarantees atomic).
	LinesPerSlice int
	Cycles        uint64
	AGBStalls     uint64
}

// AGBSweep runs TSOPER across AGB slice capacities.
func AGBSweep(o Options) *AGBSweepResult {
	sizes := []int{160, 80, 40, 20} // 10 KB down to 1.25 KB per channel
	var cfgs []machine.Config
	for _, sz := range sizes {
		cfg := machine.TableI(machine.TSOPER)
		cfg.AGB.LinesPerSlice = sz
		if cfg.AGLimit > sz {
			cfg.AGLimit = sz / 2
			if cfg.AGLimit == 0 {
				cfg.AGLimit = 1
			}
		}
		cfgs = append(cfgs, cfg)
	}
	benches := o.benchmarks(sweepBenches...)
	res := grid(o, benches, cfgs...)
	out := &AGBSweepResult{}
	for i, b := range benches {
		for j, r := range res[i] {
			out.Rows = append(out.Rows, AGBSweepRow{
				Bench: b.Name, LinesPerSlice: sizes[j],
				Cycles: uint64(r.Cycles), AGBStalls: r.AGBStalls,
			})
		}
	}
	return out
}

func (a *AGBSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AGB size sweep (TSOPER): slice capacity vs execution time\n")
	var base uint64
	for _, r := range a.Rows {
		if r.LinesPerSlice == 160 {
			base = r.Cycles
		}
		fmt.Fprintf(&b, "  %-12s %4d lines/slice (%5.2f KB): %10d cycles (%.3fx)  stalls=%d\n",
			r.Bench, r.LinesPerSlice, float64(r.LinesPerSlice)*64/1024,
			r.Cycles, float64(r.Cycles)/float64(base), r.AGBStalls)
	}
	return b.String()
}

// EvictSweepResult reports the eviction-buffer depth ablation (§III-B: 16
// entries never experience pressure).
type EvictSweepResult struct {
	Rows []EvictSweepRow
}

// EvictSweepRow is one (benchmark, depth) sample.
type EvictSweepRow struct {
	Bench   string
	Entries int
	Cycles  uint64
	Max     int
	Stalls  uint64
}

// EvictSweep runs TSOPER across eviction-buffer depths. By default it
// picks benchmarks whose working sets exceed the private cache, so the
// eviction buffer actually sees traffic.
func EvictSweep(o Options) *EvictSweepResult {
	depths := []int{16, 8, 4, 2}
	var cfgs []machine.Config
	for _, n := range depths {
		cfg := machine.TableI(machine.TSOPER)
		cfg.EvictBufEntries = n
		cfgs = append(cfgs, cfg)
	}
	benches := o.benchmarks("blackscholes", "swaptions", "canneal", "radix")
	res := grid(o, benches, cfgs...)
	out := &EvictSweepResult{}
	for i, b := range benches {
		for j, r := range res[i] {
			out.Rows = append(out.Rows, EvictSweepRow{
				Bench: b.Name, Entries: depths[j], Cycles: uint64(r.Cycles),
				Max: r.EvictBufMax, Stalls: r.EvictBufStalls,
			})
		}
	}
	return out
}

func (a *EvictSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Eviction buffer sweep (TSOPER)\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-12s %2d entries: %10d cycles  max-occupancy=%d stalls=%d\n",
			r.Bench, r.Entries, r.Cycles, r.Max, r.Stalls)
	}
	return b.String()
}

// AGBOrgResult compares the centralized and distributed AGB organizations
// of §II-C at equal total capacity.
type AGBOrgResult struct {
	Rows []AGBOrgRow
}

// AGBOrgRow is one benchmark's comparison.
type AGBOrgRow struct {
	Bench                    string
	Centralized, Distributed uint64
}

// AGBOrganizations runs the organization comparison.
func AGBOrganizations(o Options) *AGBOrgResult {
	central := machine.TableI(machine.TSOPER)
	central.AGB.Slices = 1
	central.AGB.LinesPerSlice = 1280 // same total capacity
	benches := o.benchmarks(sweepBenches...)
	res := grid(o, benches, central, machine.TableI(machine.TSOPER))
	out := &AGBOrgResult{}
	for i, b := range benches {
		out.Rows = append(out.Rows, AGBOrgRow{
			Bench: b.Name, Centralized: uint64(res[i][0].Cycles), Distributed: uint64(res[i][1].Cycles),
		})
	}
	return out
}

func (a *AGBOrgResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AGB organization (TSOPER, equal capacity): centralized vs distributed\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-12s centralized %10d cycles   distributed %10d cycles (%.3fx)\n",
			r.Bench, r.Centralized, r.Distributed, float64(r.Distributed)/float64(r.Centralized))
	}
	return b.String()
}

// SLCOverheadResult quantifies SLC's coherence cost against a conventional
// MESI-style directory on the non-persistent baseline (§V: the paper
// confirms a ~3% overhead, to be paid only on persistent addresses in a
// hybrid deployment).
type SLCOverheadResult struct {
	Rows []SLCOverheadRow
	Avg  float64
}

// SLCOverheadRow is one benchmark's SLC-vs-MESI baseline comparison.
type SLCOverheadRow struct {
	Bench      string
	MESICycles uint64
	SLCCycles  uint64
}

// SLCOverhead runs the coherence-protocol comparison. It names both
// backends itself, so Options.Protocol does not apply.
func SLCOverhead(o Options) *SLCOverheadResult {
	o.Protocol = machine.CoherenceSLC
	mesi := machine.TableI(machine.Baseline)
	mesi.Coherence = machine.CoherenceMESI
	benches := o.benchmarks()
	res := grid(o, benches, machine.TableI(machine.Baseline), mesi)
	out := &SLCOverheadResult{}
	var ratios []float64
	for i, b := range benches {
		slcRun, mesiRun := res[i][0], res[i][1]
		out.Rows = append(out.Rows, SLCOverheadRow{
			Bench: b.Name, MESICycles: uint64(mesiRun.Cycles), SLCCycles: uint64(slcRun.Cycles),
		})
		ratios = append(ratios, float64(slcRun.Cycles)/float64(mesiRun.Cycles))
	}
	out.Avg = mean(ratios)
	return out
}

func (a *SLCOverheadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLC coherence overhead vs MESI-style directory (baseline, no persistency)\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-14s MESI %10d  SLC %10d  (%.3fx)\n",
			r.Bench, r.MESICycles, r.SLCCycles, float64(r.SLCCycles)/float64(r.MESICycles))
	}
	fmt.Fprintf(&b, "  %-14s SLC/MESI = %.3fx (paper: ~1.03x)\n", "average", a.Avg)
	return b.String()
}

// WhisperResult reports the selective-persistency study: the §V baseline
// discussion notes that suites like WHISPER persist only ~4% of stores, so
// a hybrid that applies the persistency machinery only to persistent
// addresses recovers most of the (already small) TSOPER overhead.
type WhisperResult struct {
	Rows []WhisperRow
}

// WhisperRow compares full-coverage and shared-region-only persistency.
type WhisperRow struct {
	Bench                        string
	BaselineCycles               uint64
	FullCycles, SelectiveCycles  uint64
	FullPersists, SelectPersists uint64
}

// Whisper runs the selective-persistency comparison.
func Whisper(o Options) *WhisperResult {
	selective := machine.TableI(machine.TSOPER)
	selective.PersistFilter = func(l mem.Line) bool {
		return l >= mem.LineOf(trace.SharedBase) && l < mem.LineOf(trace.PrivateBase)
	}
	benches := o.benchmarks(sweepBenches...)
	res := grid(o, benches, machine.TableI(machine.Baseline), machine.TableI(machine.TSOPER), selective)
	out := &WhisperResult{}
	for i, b := range benches {
		base, full, sel := res[i][0], res[i][1], res[i][2]
		out.Rows = append(out.Rows, WhisperRow{
			Bench:           b.Name,
			BaselineCycles:  uint64(base.Cycles),
			FullCycles:      uint64(full.Cycles),
			SelectiveCycles: uint64(sel.Cycles),
			FullPersists:    full.TotalPersistWrites,
			SelectPersists:  sel.TotalPersistWrites,
		})
	}
	return out
}

func (a *WhisperResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Selective persistency (WHISPER-style hybrid): persist shared region only\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-12s full %.3fx baseline (%d persists)   selective %.3fx (%d persists)\n",
			r.Bench,
			float64(r.FullCycles)/float64(r.BaselineCycles), r.FullPersists,
			float64(r.SelectiveCycles)/float64(r.BaselineCycles), r.SelectPersists)
	}
	return b.String()
}

// BSPEpochResult reports the BSP epoch-size ablation (§V-B: shrinking
// BSP+SLC+AGB epochs to 80 lines closes most of the residual gap).
type BSPEpochResult struct {
	Rows []BSPEpochRow
}

// BSPEpochRow is one (benchmark, epoch size) sample, normalized to TSOPER.
type BSPEpochRow struct {
	Bench       string
	EpochStores int
	VsTSOPER    float64
}

// BSPEpochSweep runs BSP+SLC+AGB across epoch sizes. By default it adds
// low-conflict benchmarks: BSP breaks epochs on every conflict, so the
// configured epoch length only binds where conflicts are rare enough for
// epochs to reach it.
func BSPEpochSweep(o Options) *BSPEpochResult {
	epochs := []int{10000, 1000, 80}
	cfgs := []machine.Config{machine.TableI(machine.TSOPER)}
	for _, ep := range epochs {
		cfg := machine.TableI(machine.BSPSLCAGB)
		cfg.BSPEpochStores = ep
		cfgs = append(cfgs, cfg)
	}
	benches := o.benchmarks("blackscholes", "swaptions", "bodytrack", "ocean_cp")
	res := grid(o, benches, cfgs...)
	out := &BSPEpochResult{}
	for i, b := range benches {
		ts := res[i][0]
		for j, ep := range epochs {
			out.Rows = append(out.Rows, BSPEpochRow{
				Bench: b.Name, EpochStores: ep,
				VsTSOPER: float64(res[i][j+1].Cycles) / float64(ts.Cycles),
			})
		}
	}
	return out
}

func (a *BSPEpochResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BSP+SLC+AGB epoch-size sweep, normalized to TSOPER (§V-B)\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-12s epoch %6d stores: %.3fx TSOPER\n", r.Bench, r.EpochStores, r.VsTSOPER)
	}
	return b.String()
}
