package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig11 reproduces Figure 11: application execution time for HW-RP, BSP,
// STW, and TSOPER, normalized to the SLC baseline.
type Fig11 struct {
	Rows    []Fig11Row
	Avg     map[machine.SystemKind]float64
	Max     map[machine.SystemKind]float64
	Systems []machine.SystemKind
}

// Fig11Row is one benchmark's normalized execution times.
type Fig11Row struct {
	Bench      string
	Normalized map[machine.SystemKind]float64
}

// Figure11 runs the experiment.
func Figure11(o Options) *Fig11 {
	fig := &Fig11{Systems: []machine.SystemKind{machine.HWRP, machine.BSP, machine.STW, machine.TSOPER}}
	fig.Rows, fig.Avg, fig.Max = normalize(o, machine.Baseline, fig.Systems)
	return fig
}

func (f *Fig11) String() string {
	return normTable("Figure 11: execution time normalized to SLC baseline", f.Systems, f.Rows,
		Fig11Row{"average", f.Avg}, Fig11Row{"max", f.Max})
}

// Fig12 reproduces Figure 12: BSP, BSP+SLC, BSP+SLC+AGB relative to TSOPER.
type Fig12 struct {
	Rows    []Fig11Row // same shape: normalized-to-TSOPER values
	Avg     map[machine.SystemKind]float64
	Systems []machine.SystemKind
}

// Figure12 runs the stepping-stone comparison.
func Figure12(o Options) *Fig12 {
	fig := &Fig12{Systems: []machine.SystemKind{machine.BSP, machine.BSPSLC, machine.BSPSLCAGB}}
	fig.Rows, fig.Avg, _ = normalize(o, machine.TSOPER, fig.Systems)
	return fig
}

func (f *Fig12) String() string {
	return normTable("Figure 12: execution time normalized to TSOPER", f.Systems, f.Rows,
		Fig11Row{"average", f.Avg})
}

// normalize simulates every benchmark under base and each of systems, and
// returns each system's cycles relative to base's per benchmark, with the
// mean and the max of those ratios per system.
func normalize(o Options, base machine.SystemKind, systems []machine.SystemKind) (rows []Fig11Row, avg, peak map[machine.SystemKind]float64) {
	benches := o.benchmarks()
	res := grid(o, benches, tableI(append([]machine.SystemKind{base}, systems...)...)...)
	perSys := map[machine.SystemKind][]float64{}
	for i, b := range benches {
		row := Fig11Row{Bench: b.Name, Normalized: map[machine.SystemKind]float64{}}
		for j, s := range systems {
			n := float64(res[i][j+1].Cycles) / float64(res[i][0].Cycles)
			row.Normalized[s] = n
			perSys[s] = append(perSys[s], n)
		}
		rows = append(rows, row)
	}
	avg, peak = map[machine.SystemKind]float64{}, map[machine.SystemKind]float64{}
	for _, s := range systems {
		avg[s] = mean(perSys[s])
		peak[s] = maxF(perSys[s])
	}
	return rows, avg, peak
}

// normTable renders normalized execution times under title: one column per
// system, one line per benchmark row, then the summary rows.
func normTable(title string, systems []machine.SystemKind, rows []Fig11Row, summary ...Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, s := range systems {
		fmt.Fprintf(&b, " %11s", s)
	}
	b.WriteByte('\n')
	for _, part := range [][]Fig11Row{rows, summary} {
		for _, r := range part {
			fmt.Fprintf(&b, "%-14s", r.Bench)
			for _, s := range systems {
				fmt.Fprintf(&b, " %11.3f", r.Normalized[s])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Fig13 reproduces Figure 13: the cumulative histogram of atomic-group
// sizes under TSOPER, pooled over all benchmarks, plus per-benchmark CDFs.
type Fig13 struct {
	Bounds []uint64
	Pooled []stats.CumBin
	Per    map[string][]stats.CumBin
	// FracUnder10 and FracOver80 are the two headline numbers: the paper
	// reports ~90% of AGs under 10 lines and <1% over 80.
	FracUnder10 float64
	FracOver80  float64
}

// Figure13 runs the AG-size study.
func Figure13(o Options) *Fig13 {
	benches := o.benchmarks()
	res := grid(o, benches, machine.TableI(machine.TSOPER))
	bounds := []uint64{1, 2, 5, 10, 20, 40, 80, 160}
	pooled := stats.NewDist("pooled")
	fig := &Fig13{Bounds: bounds, Per: map[string][]stats.CumBin{}}
	for i, b := range benches {
		fig.Per[b.Name] = res[i][0].AGSizes.CumHist(bounds)
		// Pool the exact per-group sizes across benchmarks.
		for _, g := range res[i][0].Groups {
			if g.Size() > 0 {
				pooled.Observe(uint64(g.Size()))
			}
		}
	}
	fig.Pooled = pooled.CumHist(bounds)
	fig.FracUnder10 = pooled.FracAtMost(10)
	fig.FracOver80 = 1 - pooled.FracAtMost(80)
	return fig
}

func (f *Fig13) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: AG size cumulative histogram (TSOPER, all benchmarks)\n")
	for _, bin := range f.Pooled {
		fmt.Fprintf(&b, "  <= %4d lines: %6.2f%%\n", bin.Bound, bin.Frac*100)
	}
	fmt.Fprintf(&b, "  fraction <= 10 lines: %.1f%%   fraction > 80 lines: %.2f%%\n",
		f.FracUnder10*100, f.FracOver80*100)
	return b.String()
}

// Fig14 reproduces Figure 14: coherence vs. persistence write traffic per
// system, normalized to the baseline's coherence write volume.
type Fig14 struct {
	Rows    []Fig14Row
	Systems []machine.SystemKind
}

// Fig14Row is one benchmark's normalized traffic split.
type Fig14Row struct {
	Bench     string
	Coherence map[machine.SystemKind]float64
	Persist   map[machine.SystemKind]float64
}

// Figure14 runs the traffic study.
func Figure14(o Options) *Fig14 {
	systems := []machine.SystemKind{machine.Baseline, machine.HWRP, machine.BSP, machine.STW, machine.TSOPER}
	benches := o.benchmarks()
	res := grid(o, benches, tableI(systems...)...)
	fig := &Fig14{Systems: systems[1:]}
	for i, b := range benches {
		base := float64(res[i][0].CoherenceWrites)
		if base == 0 {
			base = 1
		}
		row := Fig14Row{
			Bench:     b.Name,
			Coherence: map[machine.SystemKind]float64{},
			Persist:   map[machine.SystemKind]float64{},
		}
		for j, s := range fig.Systems {
			row.Coherence[s] = float64(res[i][j+1].CoherenceWrites) / base
			row.Persist[s] = float64(res[i][j+1].PersistWrites) / base
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

func (f *Fig14) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: write traffic normalized to baseline coherence writes\n")
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, s := range f.Systems {
		fmt.Fprintf(&b, " %17s", s)
	}
	b.WriteString("   (coherence+persist)\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-14s", r.Bench)
		for _, s := range f.Systems {
			fmt.Fprintf(&b, "     %5.2f + %5.2f", r.Coherence[s], r.Persist[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig15 reproduces Figure 15: ocean_cp's SFR sizes under HW-RP vs. AG sizes
// under TSOPER — size-over-time series and cumulative histograms.
type Fig15 struct {
	SFRTimeline *stats.Series
	AGTimeline  *stats.Series
	SFRHist     []stats.CumBin
	AGHist      []stats.CumBin
	// FracSFROne is the fraction of SFRs with <= 1 store (the paper: over
	// 90% of HW-RP's SFRs are single-store critical sections).
	FracSFROne float64
	// HWRPPersists and TSOPERPersists compare total persist volume.
	HWRPPersists, TSOPERPersists uint64
}

// Figure15 runs the ocean_cp case study.
func Figure15(o Options) *Fig15 {
	p, ok := trace.ByName("ocean_cp")
	if !ok {
		panic("harness: ocean_cp profile missing")
	}
	res := grid(o, []trace.Profile{p}, tableI(machine.HWRP, machine.TSOPER)...)
	hw, ts := res[0][0], res[0][1]
	bounds := []uint64{1, 2, 5, 10, 25, 100, 500, 2500}
	return &Fig15{
		SFRTimeline:    hw.SizeTimeline.Downsample(64),
		AGTimeline:     ts.SizeTimeline.Downsample(64),
		SFRHist:        hw.SFRStores.CumHist(bounds),
		AGHist:         ts.AGSizes.CumHist(bounds),
		FracSFROne:     hw.SFRStores.FracAtMost(1),
		HWRPPersists:   hw.PersistWrites,
		TSOPERPersists: ts.PersistWrites,
	}
}

func (f *Fig15) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: ocean_cp SFR (HW-RP) vs AG (TSOPER)\n")
	fmt.Fprintf(&b, "  SFRs with <= 1 store: %.1f%%\n", f.FracSFROne*100)
	fmt.Fprintf(&b, "  persist volume: HW-RP %d lines vs TSOPER %d lines (%.2fx)\n",
		f.HWRPPersists, f.TSOPERPersists, float64(f.HWRPPersists)/float64(maxU(f.TSOPERPersists, 1)))
	fmt.Fprintf(&b, "  SFR-size CDF:")
	for _, bin := range f.SFRHist {
		fmt.Fprintf(&b, "  <=%d:%.0f%%", bin.Bound, bin.Frac*100)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  AG-size  CDF:")
	for _, bin := range f.AGHist {
		fmt.Fprintf(&b, "  <=%d:%.0f%%", bin.Bound, bin.Frac*100)
	}
	b.WriteByte('\n')
	return b.String()
}

// ListLengths reproduces the §V-B sharing-list statistics: mean coherence
// list length vs. mean persist list length per benchmark.
type ListLengths struct {
	Rows []ListLengthRow
	// AvgCoherence and AvgPersist are roster-wide means (paper: <2 vs ~4).
	AvgCoherence, AvgPersist float64
}

// ListLengthRow is one benchmark's list lengths under TSOPER.
type ListLengthRow struct {
	Bench              string
	Coherence, Persist float64
}

// Lists runs the sharing-list length study.
func Lists(o Options) *ListLengths {
	benches := o.benchmarks()
	res := grid(o, benches, machine.TableI(machine.TSOPER))
	out := &ListLengths{}
	var cs, ps []float64
	for i, b := range benches {
		r := res[i][0]
		out.Rows = append(out.Rows, ListLengthRow{
			Bench: b.Name, Coherence: r.CoherenceListLen, Persist: r.PersistListLen,
		})
		cs = append(cs, r.CoherenceListLen)
		ps = append(ps, r.PersistListLen)
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Bench < out.Rows[j].Bench })
	out.AvgCoherence = mean(cs)
	out.AvgPersist = mean(ps)
	return out
}

func (l *ListLengths) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharing-list lengths under TSOPER (§V-B)\n")
	for _, r := range l.Rows {
		fmt.Fprintf(&b, "  %-14s coherence %5.2f   persist %5.2f\n", r.Bench, r.Coherence, r.Persist)
	}
	fmt.Fprintf(&b, "  %-14s coherence %5.2f   persist %5.2f\n", "average", l.AvgCoherence, l.AvgPersist)
	return b.String()
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
