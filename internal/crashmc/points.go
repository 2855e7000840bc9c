package crashmc

import (
	"math/rand"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HarvestWorkload runs one probed simulation of the workload and returns
// (a) the interesting crash cycles — every persistency-transition cycle
// plus its immediate successor, deduplicated and sorted — and (b) the
// horizon, the cycle at which the end-of-run drain completed (the top-up
// draws from [1, horizon]); the machine's clock stops there, so the horizon
// is Results.DrainCycles without building the Results. When more than
// budget cycles are harvested they are thinned by an even stride so
// coverage stays spread across the run (budget <= 0 keeps everything).
// Configuration errors and wedged runs — watchdog stalls, deadlocks, lost
// persists — come back as errors.
func HarvestWorkload(cfg machine.Config, w *trace.Workload, budget int) ([]uint64, uint64, error) {
	points, m, err := harvestRun(cfg, w, budget)
	if err != nil {
		return nil, 0, err
	}
	return points, uint64(m.Now()), nil
}

// harvestRun is HarvestWorkload returning the machine it ran, so a campaign
// can read the run's fault ledger too. A run that wedged keeps its points,
// and its machine stands where the run stopped; a configuration machine.New
// rejects returns no machine.
func harvestRun(cfg machine.Config, w *trace.Workload, budget int) ([]uint64, *machine.Machine, error) {
	seen := map[uint64]bool{}
	cfg.Probe = func(e machine.Event) {
		seen[uint64(e.At)] = true
		seen[uint64(e.At)+1] = true
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.Start(w)
	_, err = m.Advance(sim.MaxTime)

	points := make([]uint64, 0, len(seen))
	for at := range seen {
		if at > 0 {
			points = append(points, at)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	if budget > 0 && len(points) > budget {
		thinned := make([]uint64, 0, budget)
		for i := 0; i < budget; i++ {
			thinned = append(thinned, points[i*len(points)/budget])
		}
		points = thinned
	}
	return points, m, err
}

// Sweep crashes the workload at each of an ascending run of cycles and
// hands visit each point's index and crash state. It forks: one machine
// starts the workload once and advances from each point to the next,
// capturing the state at every stop, so the shared prefix simulates once.
// A capture is a snapshot the machine never changes afterwards. The only
// error is a configuration machine.New rejects.
func Sweep(cfg machine.Config, w *trace.Workload, points []uint64, visit func(i int, cs *machine.CrashState)) error {
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	m.StartCrashRun(w)
	for i, at := range points {
		m.AdvanceTo(sim.Time(at))
		visit(i, m.CaptureCrashState())
	}
	return nil
}

// Replay is Sweep's reference: a fresh machine runs the workload from cycle
// 0 to each point, so every state costs its whole prefix and the points may
// come in any order. Sweep must visit the same states.
func Replay(cfg machine.Config, w *trace.Workload, points []uint64, visit func(i int, cs *machine.CrashState)) error {
	for i, at := range points {
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		visit(i, m.RunWithCrash(w, sim.Time(at)))
	}
	return nil
}

// topUp returns up to n distinct seeded random cycles in [1, horizon] that
// are not in taken, unsorted: RandomPoints' draws for the seed with every
// taken or repeated cycle skipped. When no more than n cycles are free it
// returns all of them.
func topUp(taken []uint64, horizon uint64, n int, seed int64) []uint64 {
	used := make(map[uint64]bool, len(taken))
	free := horizon
	for _, at := range taken {
		if at >= 1 && at <= horizon && !used[at] {
			free--
		}
		used[at] = true
	}
	if free <= uint64(n) {
		out := make([]uint64, 0, free)
		for at := uint64(1); at <= horizon; at++ {
			if !used[at] {
				out = append(out, at)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, 0, n)
	for len(out) < n {
		at := 1 + uint64(rng.Int63n(int64(horizon)))
		if !used[at] {
			used[at] = true
			out = append(out, at)
		}
	}
	return out
}

// RandomPoints returns n seeded random crash cycles in [1, horizon],
// sorted. The same (horizon, n, seed) always yields the same sweep.
func RandomPoints(horizon uint64, n int, seed int64) []uint64 {
	if horizon < 2 {
		horizon = 2
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]uint64, n)
	for i := range points {
		points[i] = 1 + uint64(rng.Int63n(int64(horizon)))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	return points
}
