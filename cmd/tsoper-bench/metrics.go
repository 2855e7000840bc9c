package main

import (
	"math"
	"sort"
)

// metricDef names one metric with its unit and the direction that counts
// as better. Bound (end-to-end metrics only) is the share of the parent's
// median by which the metric may worsen before a change is a regression.
// BENCHMARK.json at the repository root mirrors these tables; the schema
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured on the
// untraced passes of every workload. An "op" is the workload's unit of
// work: an experiment entry point (paper_sweep), a crash injection
// (crash_campaign), a checked crash state (litmus_gate) or a service job
// (service_jobs). The host-time bounds are the widest allowed: on a shared
// two-vCPU host, runs of the same inputs drifted 10-25% apart over minutes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
}

// hostLayers are the buckets CPU-profile samples are charged to: the
// repository package of the innermost repository frame on the stack,
// "bench" for this benchmark's own frames, "other" for a repository package
// not listed here, and "gc" for samples with no repository frame at all
// (garbage collection, the Go scheduler, net/http connection goroutines).
var hostLayers = []string{"sim", "machine", "core", "cache", "coherence", "noc", "agb", "nvm",
	"mem", "trace", "stats", "telemetry", "faultplan", "checker", "crashmc", "litmus", "ckpt",
	"program", "harness", "service", "bench", "other", "gc"}

// perLayer are the metrics of the traced pass. Every workload reports
// every name; a layer the workload never enters reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, e := range paperEntries {
		defs = append(defs, metricDef{Name: "harness." + e.name + "_s", Unit: "s", Better: "lower"})
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{Name: "host." + l + "_pct", Unit: "%", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.noc_messages", Unit: "count", Better: "lower"},
		{Name: "sim.noc_hops", Unit: "count", Better: "lower"},
		{Name: "sim.nvm_writes", Unit: "count", Better: "lower"},
		{Name: "sim.nvm_reads", Unit: "count", Better: "lower"},
		{Name: "sim.agb_groups", Unit: "count", Better: "lower"},
		{Name: "sim.agb_reservation_stalls", Unit: "count", Better: "lower"},
		{Name: "sim.evictbuf_stalls", Unit: "count", Better: "lower"},
		{Name: "sim.llc_util", Unit: "ratio", Better: "lower"},
		{Name: "sim.noc_util", Unit: "ratio", Better: "lower"},
		{Name: "sim.nvm_util", Unit: "ratio", Better: "lower"},
		{Name: "sim.agb_util", Unit: "ratio", Better: "lower"},
		{Name: "sim.persist_list_len", Unit: "lines", Better: "lower"},
		{Name: "sim.tsoper_norm_exec", Unit: "ratio", Better: "lower"},
		{Name: "trace.generate_s", Unit: "s", Better: "lower"},
		{Name: "crashmc.harvest_s", Unit: "s", Better: "lower"},
		{Name: "machine.new_s", Unit: "s", Better: "lower"},
		{Name: "machine.advance_s", Unit: "s", Better: "lower"},
		{Name: "machine.capture_s", Unit: "s", Better: "lower"},
		{Name: "machine.crashrun_s", Unit: "s", Better: "lower"},
		{Name: "checker.check_s", Unit: "s", Better: "lower"},
		{Name: "crashmc.partial_frac", Unit: "ratio", Better: "higher"},
		{Name: "crashmc.injections", Unit: "count", Better: "higher"},
		{Name: "litmus.lower_s", Unit: "s", Better: "lower"},
		{Name: "litmus.crash_states", Unit: "count", Better: "higher"},
		{Name: "service.job_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "service.job_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
		{Name: "service.wait_ms", Unit: "ms", Better: "lower"},
		{Name: "service.fetch_ms", Unit: "ms", Better: "lower"},
		{Name: "service.hash_ms", Unit: "ms", Better: "lower"},
		{Name: "program.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "service.simulate_ms", Unit: "ms", Better: "lower"},
		{Name: "service.encode_ms", Unit: "ms", Better: "lower"},
		{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "service.dedups", Unit: "count", Better: "higher"},
		{Name: "service.rejected", Unit: "count", Better: "lower"},
		{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	}...)
}

// simulated reports whether a per-layer metric is a simulated-machine
// quantity (or an op count) that must repeat exactly for a given seed.
func simulated(name string) bool {
	switch name {
	case "sim.ns_per_event":
		return false
	case "crashmc.partial_frac", "crashmc.injections", "litmus.crash_states":
		return true
	}
	return len(name) > 4 && name[:4] == "sim."
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// summary is a timing or size reported as the median over its samples.
type summary struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// interpolation), so spreads read the same here as in any script that
// re-checks them. One sample is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	idx := int(math.Ceil(p / 100 * float64(len(d))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(d) {
		idx = len(d)
	}
	return d[idx-1]
}
