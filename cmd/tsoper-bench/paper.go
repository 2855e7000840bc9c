package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// paperSweep runs the 15 harness entry points of `tsoper-experiments -exp
// all` in process. Its output is the CLI's with the timings stripped from
// the "==== name ====" headers, so at the reference seed it must equal
// results/experiments_scale0.5.txt.
type paperSweep struct {
	opts harness.Options
	// sideBenches are simulated once more, outside the harness, for the
	// sim.* counters of the traced pass.
	sideBenches []trace.Profile
	normExec    float64 // Fig. 11 mean TSOPER / SLC-baseline cycles, from the last pass
	inputDigest string
}

type paperEntry struct {
	name string
	run  func(harness.Options) fmt.Stringer
}

type text string

func (t text) String() string { return string(t) }

var paperEntries = []paperEntry{
	{"tableI", func(harness.Options) fmt.Stringer { return text(harness.TableIText()) }},
	{"protocol", func(harness.Options) fmt.Stringer { return text(harness.ProtocolComplexityText()) }},
	{"fig11", func(o harness.Options) fmt.Stringer { return harness.Figure11(o) }},
	{"fig12", func(o harness.Options) fmt.Stringer { return harness.Figure12(o) }},
	{"fig13", func(o harness.Options) fmt.Stringer { return harness.Figure13(o) }},
	{"fig14", func(o harness.Options) fmt.Stringer { return harness.Figure14(o) }},
	{"fig15", func(o harness.Options) fmt.Stringer { return harness.Figure15(o) }},
	{"lists", func(o harness.Options) fmt.Stringer { return harness.Lists(o) }},
	{"agbsweep", func(o harness.Options) fmt.Stringer { return harness.AGBSweep(o) }},
	{"evict", func(o harness.Options) fmt.Stringer { return harness.EvictSweep(o) }},
	{"agborg", func(o harness.Options) fmt.Stringer { return harness.AGBOrganizations(o) }},
	{"epochs", func(o harness.Options) fmt.Stringer { return harness.BSPEpochSweep(o) }},
	{"whisper", func(o harness.Options) fmt.Stringer { return harness.Whisper(o) }},
	{"slccost", func(o harness.Options) fmt.Stringer { return harness.SLCOverhead(o) }},
	{"protocols", func(o harness.Options) fmt.Stringer { return harness.ProtocolBakeoff(o) }},
}

func newPaperSweep(seed int64, short bool) (*paperSweep, error) {
	w := &paperSweep{opts: harness.Options{Scale: 0.5, Seed: seed, Workers: 2}}
	// The six distinct benchmarks the ablation sweeps single out.
	side := []string{"radix", "ocean_cp", "bodytrack", "dedup", "blackscholes", "swaptions"}
	if short {
		w.opts.Scale = 0.02
		w.opts.Benchmarks = []string{"radix", "ocean_cp", "dedup"}
		side = side[:2]
	}
	for _, name := range side {
		p, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("paper_sweep: benchmark %q missing from the roster", name)
		}
		w.sideBenches = append(w.sideBenches, p)
	}
	// The inputs are the roster's workloads at the sweep's scale and seed,
	// as every figure cell generates them.
	roster := trace.Benchmarks()
	if short {
		roster = nil
		for _, name := range w.opts.Benchmarks {
			p, _ := trace.ByName(name)
			roster = append(roster, p)
		}
	}
	cores := machine.TableI(machine.TSOPER).Cores
	var wls []*trace.Workload
	for _, p := range roster {
		wls = append(wls, trace.Generate(p.Scale(w.opts.Scale), cores, seed))
	}
	var err error
	w.inputDigest, err = digestWorkloads(wls...)
	return w, err
}

func (w *paperSweep) inputs() string { return w.inputDigest }

func (w *paperSweep) pass() (*passResult, error) {
	return w.run(nil), nil
}

// run executes every entry point in order; with a tracer it also records
// each entry's wall time under harness.<name>_s. The harness panics on a
// wedged or misconfigured simulation, often in a worker goroutine, so such
// a failure ends the run.
func (w *paperSweep) run(tr *tracer) *passResult {
	res := &passResult{}
	var out strings.Builder
	for _, e := range paperEntries {
		start := time.Now()
		s := e.run(w.opts)
		if tr != nil {
			tr.record("harness."+e.name+"_s", time.Since(start))
		}
		res.ops++
		if f, ok := s.(*harness.Fig11); ok {
			w.normExec = f.Avg[machine.TSOPER]
		}
		fmt.Fprintf(&out, "==== %s ====\n%s\n", e.name, s)
	}
	res.digest = sha256Hex([]byte(out.String()))
	return res
}

func (w *paperSweep) trace(tr *tracer, ref *passResult) (map[string]float64, error) {
	var replica *passResult
	err := tr.replica(func() error {
		replica = w.run(tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if replica.digest != ref.digest || replica.ops != ref.ops {
		return nil, fmt.Errorf("paper_sweep replica diverged: %d entries, digest %.12s; untraced %d, %.12s",
			replica.ops, replica.digest, ref.ops, ref.digest)
	}
	m := map[string]float64{"sim.tsoper_norm_exec": w.normExec}
	for _, e := range paperEntries {
		m["harness."+e.name+"_s"] = tr.total("harness." + e.name + "_s")
	}
	side, err := w.sideRun()
	if err != nil {
		return nil, err
	}
	for k, v := range side {
		m[k] = v
	}
	return m, nil
}

// sideRun simulates the side benchmarks under TSOPER — the same cells the
// figures run — through trace.Generate, machine.New, Start, Advance and
// Results, on the sweep's two workers. The event count comes from the
// final checkpoint's header.
func (w *paperSweep) sideRun() (map[string]float64, error) {
	cells := make([]sideCell, len(w.sideBenches))
	parallel(len(cells), w.opts.Workers, func(i int) { cells[i] = w.simulate(w.sideBenches[i]) })

	m := map[string]float64{}
	var advance time.Duration
	var events uint64
	var lenSum, lenCount float64
	util := map[string][]float64{}
	for i, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("paper_sweep side run %s: %w", w.sideBenches[i].Name, c.err)
		}
		advance += c.advance
		events += c.events
		snap := c.res.Snapshot()
		m["sim.noc_messages"] += float64(snap.Counters["noc.messages"])
		m["sim.noc_hops"] += float64(snap.Counters["noc.hops"])
		m["sim.nvm_writes"] += float64(snap.Counters["nvm.writes"])
		m["sim.nvm_reads"] += float64(snap.Counters["nvm.reads"])
		m["sim.agb_groups"] += float64(snap.Counters["agb.groups"])
		m["sim.agb_reservation_stalls"] += float64(snap.Counters["agb.reservation_stalls"])
		m["sim.evictbuf_stalls"] += float64(c.res.EvictBufStalls)
		d := snap.Dists["slc.persist_list_len"]
		lenSum += float64(d.Sum)
		lenCount += float64(d.Count)
		// Sum in name order so the floating-point result repeats exactly.
		names := make([]string, 0, len(snap.Resources))
		for name := range snap.Resources {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			kind := resourceKind(name)
			util[kind] = append(util[kind], snap.Resources[name].Utilization)
		}
	}
	m["sim.events"] = float64(events)
	if events > 0 {
		m["sim.ns_per_event"] = float64(advance.Nanoseconds()) / float64(events)
	}
	if lenCount > 0 {
		m["sim.persist_list_len"] = lenSum / lenCount
	}
	for prefix, metric := range map[string]string{
		"llc.bank": "sim.llc_util", "noc.node": "sim.noc_util", "nvm.rank": "sim.nvm_util", "agb.slice": "sim.agb_util",
	} {
		var s float64
		for _, u := range util[prefix] {
			s += u
		}
		if len(util[prefix]) > 0 {
			m[metric] = s / float64(len(util[prefix]))
		}
	}
	return m, nil
}

// resourceKind strips the unit index from a snapshot resource name
// ("nvm.rank3" -> "nvm.rank").
func resourceKind(name string) string {
	return strings.TrimRight(name, "0123456789")
}

// sideCell is one side-run simulation: its Advance wall time, executed
// events and results.
type sideCell struct {
	advance time.Duration
	events  uint64
	res     *machine.Results
	err     error
}

func (w *paperSweep) simulate(p trace.Profile) sideCell {
	cfg := machine.TableI(machine.TSOPER)
	wl := trace.Generate(p.Scale(w.opts.Scale), cfg.Cores, w.opts.Seed)
	m, err := machine.New(cfg)
	if err != nil {
		return sideCell{err: err}
	}
	m.Start(wl)
	start := time.Now()
	_, err = m.Advance(sim.MaxTime)
	c := sideCell{advance: time.Since(start)}
	if err != nil {
		return sideCell{err: err}
	}
	c.res = m.Results()
	blob, err := m.Checkpoint()
	if err != nil {
		return sideCell{err: err}
	}
	h, _, err := ckpt.DecodeBlob(blob)
	if err != nil {
		return sideCell{err: err}
	}
	c.events = h.Executed
	return c
}
