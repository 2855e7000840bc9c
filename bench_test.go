// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation (§V) as Go benchmarks. Each benchmark runs the
// relevant simulations and reports the paper's headline quantity as a
// custom metric, so `go test -bench=. -benchmem` reproduces the evaluation
// end to end:
//
//	BenchmarkTableIConfig        — Table I machine construction
//	BenchmarkProtocolComplexity  — SLICC complexity comparison (§V text)
//	BenchmarkFigure11/*          — execution time vs baseline (norm_exec)
//	BenchmarkFigure12/*          — BSP stepping stones vs TSOPER
//	BenchmarkFigure13            — AG-size CDF (frac_under_10, frac_over_80)
//	BenchmarkFigure14/*          — coherence vs persist traffic
//	BenchmarkFigure15            — ocean_cp SFR/AG comparison
//	BenchmarkPersistListLength   — §V-B sharing-list lengths
//	BenchmarkAGBSizeSweep/*      — AGB sizing ablation (§I)
//	BenchmarkEvictionBuffer/*    — eviction-buffer depth ablation (§III-B)
//	BenchmarkAGBOrganization/*   — centralized vs distributed AGB (§II-C)
//	BenchmarkBSPEpochSize/*      — BSP epoch-size ablation (§V-B)
//	BenchmarkCrashCheck          — crash-injection + consistency validation
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/tsoper"
)

// benchScale keeps `go test -bench=.` in the tens of seconds while
// exercising every experiment; raise it (or use cmd/tsoper-experiments
// -scale 1.0) for full-size runs.
const benchScale = 0.1

// figureBenches is the contention-diverse subset used by the per-benchmark
// figure benchmarks; the full 22-benchmark roster runs via the CLI.
var figureBenches = []string{"radix", "ocean_cp", "bodytrack", "dedup", "lu_ncb", "blackscholes"}

func benchOpts() tsoper.RunOptions { return tsoper.RunOptions{Scale: benchScale, Seed: 42} }

func mustProfile(b *testing.B, name string) tsoper.Profile {
	b.Helper()
	p, ok := tsoper.Benchmark(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	return p
}

func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := machine.TableI(machine.TSOPER)
		if _, err := machine.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		slc := coherence.SLCComplexity()
		moesi := coherence.MOESIComplexity()
		if slc.Transitions >= moesi.Transitions {
			b.Fatal("complexity inverted")
		}
	}
	b.ReportMetric(float64(coherence.SLCComplexity().Transitions), "slc_transitions")
	b.ReportMetric(float64(coherence.MOESIComplexity().Transitions), "moesi_transitions")
}

// BenchmarkFigure11 regenerates Figure 11 rows: execution time of each
// persistency system normalized to the SLC baseline.
func BenchmarkFigure11(b *testing.B) {
	for _, name := range figureBenches {
		p := mustProfile(b, name)
		base, err := tsoper.Run(p, tsoper.Baseline, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []tsoper.System{tsoper.HWRP, tsoper.BSP, tsoper.STW, tsoper.TSOPER} {
			b.Run(fmt.Sprintf("%s/%s", name, sys), func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					r, err := tsoper.Run(p, sys, benchOpts())
					if err != nil {
						b.Fatal(err)
					}
					norm = float64(r.Cycles) / float64(base.Cycles)
				}
				b.ReportMetric(norm, "norm_exec")
			})
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12: the BSP stepping stones
// normalized to TSOPER.
func BenchmarkFigure12(b *testing.B) {
	for _, name := range figureBenches {
		p := mustProfile(b, name)
		ts, err := tsoper.Run(p, tsoper.TSOPER, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []tsoper.System{tsoper.BSP, tsoper.BSPSLC, tsoper.BSPSLCAGB} {
			b.Run(fmt.Sprintf("%s/%s", name, sys), func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					r, err := tsoper.Run(p, sys, benchOpts())
					if err != nil {
						b.Fatal(err)
					}
					norm = float64(r.Cycles) / float64(ts.Cycles)
				}
				b.ReportMetric(norm, "vs_tsoper")
			})
		}
	}
}

// BenchmarkFigure13 regenerates Figure 13: the AG-size cumulative histogram.
func BenchmarkFigure13(b *testing.B) {
	o := harness.Options{Scale: benchScale, Seed: 42, Benchmarks: figureBenches}
	var fig *harness.Fig13
	for i := 0; i < b.N; i++ {
		fig = harness.Figure13(o)
	}
	b.ReportMetric(fig.FracUnder10*100, "pct_under_10_lines")
	b.ReportMetric(fig.FracOver80*100, "pct_over_80_lines")
}

// BenchmarkFigure14 regenerates Figure 14 rows: persist-vs-coherence write
// traffic normalized to the baseline's coherence writes.
func BenchmarkFigure14(b *testing.B) {
	for _, name := range figureBenches {
		p := mustProfile(b, name)
		base, err := tsoper.Run(p, tsoper.Baseline, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		den := float64(base.CoherenceWrites)
		if den == 0 {
			den = 1
		}
		for _, sys := range []tsoper.System{tsoper.HWRP, tsoper.TSOPER} {
			b.Run(fmt.Sprintf("%s/%s", name, sys), func(b *testing.B) {
				var coh, per float64
				for i := 0; i < b.N; i++ {
					r, err := tsoper.Run(p, sys, benchOpts())
					if err != nil {
						b.Fatal(err)
					}
					coh = float64(r.CoherenceWrites) / den
					per = float64(r.PersistWrites) / den
				}
				b.ReportMetric(coh, "coherence_writes")
				b.ReportMetric(per, "persist_writes")
			})
		}
	}
}

// BenchmarkFigure15 regenerates Figure 15: ocean_cp SFR vs AG behavior.
func BenchmarkFigure15(b *testing.B) {
	o := harness.Options{Scale: benchScale, Seed: 42}
	var fig *harness.Fig15
	for i := 0; i < b.N; i++ {
		fig = harness.Figure15(o)
	}
	b.ReportMetric(fig.FracSFROne*100, "pct_sfr_single_store")
	b.ReportMetric(float64(fig.HWRPPersists)/float64(fig.TSOPERPersists), "hwrp_vs_tsoper_persists")
}

// BenchmarkPersistListLength regenerates the §V-B list-length statistics.
func BenchmarkPersistListLength(b *testing.B) {
	o := harness.Options{Scale: benchScale, Seed: 42, Benchmarks: figureBenches}
	var l *harness.ListLengths
	for i := 0; i < b.N; i++ {
		l = harness.Lists(o)
	}
	b.ReportMetric(l.AvgCoherence, "coherence_list_len")
	b.ReportMetric(l.AvgPersist, "persist_list_len")
}

// BenchmarkAGBSizeSweep is the AGB sizing ablation: 10 KB slices down to
// 1.25 KB (§I claims the reduction is almost free).
func BenchmarkAGBSizeSweep(b *testing.B) {
	p := mustProfile(b, "radix")
	for _, lines := range []int{160, 80, 40, 20} {
		b.Run(fmt.Sprintf("%dlines", lines), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cfg := machine.TableI(machine.TSOPER)
				cfg.AGB.LinesPerSlice = lines
				if cfg.AGLimit > lines {
					cfg.AGLimit = lines / 2
				}
				r, err := tsoper.Run(p, tsoper.TSOPER, tsoper.RunOptions{Scale: benchScale, Seed: 42, Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(r.Cycles)
			}
			b.ReportMetric(cycles, "exec_cycles")
		})
	}
}

// BenchmarkEvictionBuffer is the §III-B eviction-buffer depth ablation.
func BenchmarkEvictionBuffer(b *testing.B) {
	p := mustProfile(b, "blackscholes")
	for _, entries := range []int{16, 8, 4, 2} {
		b.Run(fmt.Sprintf("%dentries", entries), func(b *testing.B) {
			var stalls, maxocc float64
			for i := 0; i < b.N; i++ {
				cfg := machine.TableI(machine.TSOPER)
				cfg.EvictBufEntries = entries
				r, err := tsoper.Run(p, tsoper.TSOPER, tsoper.RunOptions{Scale: benchScale, Seed: 42, Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				stalls = float64(r.EvictBufStalls)
				maxocc = float64(r.EvictBufMax)
			}
			b.ReportMetric(stalls, "stalls")
			b.ReportMetric(maxocc, "max_occupancy")
		})
	}
}

// BenchmarkAGBOrganization compares centralized vs distributed AGBs (§II-C)
// at equal capacity.
func BenchmarkAGBOrganization(b *testing.B) {
	p := mustProfile(b, "ocean_cp")
	for _, org := range []struct {
		name   string
		slices int
	}{{"centralized", 1}, {"distributed", 8}} {
		b.Run(org.name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cfg := machine.TableI(machine.TSOPER)
				cfg.AGB.Slices = org.slices
				cfg.AGB.LinesPerSlice = 1280 / org.slices
				r, err := tsoper.Run(p, tsoper.TSOPER, tsoper.RunOptions{Scale: benchScale, Seed: 42, Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(r.Cycles)
			}
			b.ReportMetric(cycles, "exec_cycles")
		})
	}
}

// BenchmarkBSPEpochSize is the §V-B epoch-size ablation for BSP+SLC+AGB.
func BenchmarkBSPEpochSize(b *testing.B) {
	p := mustProfile(b, "bodytrack")
	ts, err := tsoper.Run(p, tsoper.TSOPER, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	for _, epoch := range []int{10000, 1000, 80} {
		b.Run(fmt.Sprintf("%dstores", epoch), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				cfg := machine.TableI(machine.BSPSLCAGB)
				cfg.BSPEpochStores = epoch
				r, err := tsoper.Run(p, tsoper.BSPSLCAGB, tsoper.RunOptions{Scale: benchScale, Seed: 42, Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				norm = float64(r.Cycles) / float64(ts.Cycles)
			}
			b.ReportMetric(norm, "vs_tsoper")
		})
	}
}

// BenchmarkCrashCheck measures a full crash injection plus consistency
// validation — the reproduction's correctness kernel.
func BenchmarkCrashCheck(b *testing.B) {
	p := mustProfile(b, "radix")
	for i := 0; i < b.N; i++ {
		at := uint64(5000 + (i%10)*3000)
		cs, err := tsoper.Crash(p, tsoper.TSOPER, at, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := tsoper.Check(cs); err != nil {
			b.Fatal(err)
		}
	}
}
