package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// judgement compares one end-to-end metric of one workload between the
// parent side and the change side (see judge and README.md).
type judgement struct {
	parent, change [3]float64 // q1, median, q3
	nParent        int
	nChange        int
	wins, pairs    int
	shift          float64 // relative median change, positive = worse
	verdict        string
}

// minPairs is the fewest pairs of runs a gain may be claimed on.
const minPairs = 10

// judge returns the verdict for a metric given its samples on each side,
// of which runPairs pairs are whole runs: "improved" when there are at least
// minPairs such pairs, the change wins at least nine tenths of the
// index-aligned sample pairs (ties count for neither) and its median moved
// the better way by more than the parent's interquartile range; "regressed"
// when the median is worse by more than the bound and either both sides'
// spreads are within the bound or every change sample reads worse than
// every parent sample; "unresolved" when a side has a single sample and the
// median is worse by more than the bound, or when a side's spread exceeds
// the bound and not every change sample reads better than every parent
// sample; "unchanged" otherwise.
func judge(d metricDef, parent, change []float64, runPairs int) judgement {
	var j judgement
	j.parent[0], j.parent[1], j.parent[2] = quartiles(parent)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	j.nParent, j.nChange = len(parent), len(change)
	sign := 1.0 // +1: a larger value is worse
	if d.Better == "higher" {
		sign = -1
	}
	if j.parent[1] != 0 {
		j.shift = sign * (j.change[1] - j.parent[1]) / j.parent[1]
	}
	j.pairs = min(len(parent), len(change))
	for i := 0; i < j.pairs; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			j.wins++
		}
	}
	measured := len(parent) >= 2 && len(change) >= 2
	spread := math.Max(relIQR(j.parent), relIQR(j.change))
	allBetter, allWorse := len(parent) > 0 && len(change) > 0, len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) < 0
			allWorse = allWorse && sign*(c-p) > 0
		}
	}
	improvement := -sign * (j.change[1] - j.parent[1])
	switch {
	case runPairs >= minPairs && j.wins*10 >= j.pairs*9 && improvement > j.parent[2]-j.parent[0]:
		j.verdict = "improved"
	case measured && j.shift > d.Bound && (spread <= d.Bound || allWorse):
		j.verdict = "regressed"
	case !measured && j.shift > d.Bound, measured && spread > d.Bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

func relIQR(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// runCompare compares the first side (the parent) with each later side.
// A side is a report path or a glob matching several; each report is one
// run and contributes its median of every metric, except that a side of a
// single report contributes that report's per-pass samples.
func runCompare(items []string, stdout, stderr io.Writer) int {
	if len(items) < 2 {
		fmt.Fprintln(stderr, "-compare needs at least two comma-separated reports: PARENT.json,CHANGE.json[,...]")
		return 2
	}
	sides := make([][]*report, len(items))
	for i, item := range items {
		paths, err := filepath.Glob(item)
		if err != nil || len(paths) == 0 {
			paths = []string{item}
		}
		sort.Strings(paths)
		for _, p := range paths {
			rep, err := readReport(p)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			sides[i] = append(sides[i], rep)
		}
	}
	regressed := false
	for ci := 1; ci < len(sides); ci++ {
		fmt.Fprintf(stdout, "parent %s (%d runs) vs change %s (%d runs)\n",
			items[0], len(sides[0]), items[ci], len(sides[ci]))
		fmt.Fprintf(stdout, "  %-15s %-12s %28s %28s %8s %7s  %s\n",
			"workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "worse by", "wins", "verdict")
		for _, info := range workloadInfo {
			ps, cs := workloadsOf(sides[0], info.name), workloadsOf(sides[ci], info.name)
			if len(ps) == 0 || len(cs) == 0 {
				fmt.Fprintf(stdout, "  %-15s missing from one side\n", info.name)
				continue
			}
			for _, d := range endToEnd {
				j := judge(d, samplesOf(ps, d.Name), samplesOf(cs, d.Name), min(len(ps), len(cs)))
				if j.verdict == "regressed" {
					regressed = true
				}
				fmt.Fprintf(stdout, "  %-15s %-12s %28s %28s %+7.1f%% %7s  %s\n", info.name, d.Name,
					quartileCell(j.parent, j.nParent), quartileCell(j.change, j.nChange),
					100*j.shift, fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
			}
			fmt.Fprintf(stdout, "  %-15s simulated: %s\n", info.name, simulatedDiff(append(append([]*workloadReport{}, ps...), cs...)))
		}
	}
	if regressed {
		fmt.Fprintln(stdout, "regression: at least one metric is worse than the parent by more than its bound")
		return 1
	}
	return 0
}

func quartileCell(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q[1], q[0], q[2], n)
}

func workloadsOf(reps []*report, name string) []*workloadReport {
	var out []*workloadReport
	for _, r := range reps {
		if wr, ok := r.Workloads[name]; ok && wr != nil {
			out = append(out, wr)
		}
	}
	return out
}

// samplesOf returns one value per report, or for a single report its
// per-pass samples, so that one run against one run still has a spread.
func samplesOf(wrs []*workloadReport, metric string) []float64 {
	if len(wrs) == 1 && len(wrs[0].EndToEnd[metric].Samples) > 0 {
		return wrs[0].EndToEnd[metric].Samples
	}
	xs := make([]float64, len(wrs))
	for i, wr := range wrs {
		xs[i] = wr.EndToEnd[metric].Value
	}
	return xs
}

// simulatedDiff checks that the output digests and the simulated per-layer
// metrics of every report agree: for one seed they must repeat exactly.
func simulatedDiff(wrs []*workloadReport) string {
	var diffs []string
	for _, wr := range wrs[1:] {
		if wr.Digest != wrs[0].Digest {
			diffs = append(diffs, fmt.Sprintf("digest %.12s vs %.12s", wrs[0].Digest, wr.Digest))
		}
	}
	traced := 0
	var first *workloadReport
	for _, wr := range wrs {
		if wr.PerLayer == nil {
			continue
		}
		traced++
		if first == nil {
			first = wr
			continue
		}
		for _, d := range perLayer {
			if simulated(d.Name) && wr.PerLayer[d.Name].Value != first.PerLayer[d.Name].Value {
				diffs = append(diffs, fmt.Sprintf("%s %g vs %g", d.Name, first.PerLayer[d.Name].Value, wr.PerLayer[d.Name].Value))
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Sprintf("DIFFERENT: %v", diffs)
	}
	return fmt.Sprintf("identical (digests of %d reports, simulated metrics of %d traced)", len(wrs), traced)
}
