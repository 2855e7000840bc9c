package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// schedKinds enumerates both queue implementations for differential tests.
var schedKinds = []SchedulerKind{SchedulerHeap, SchedulerWheel}

func TestEngineSchedulerReported(t *testing.T) {
	if k := NewEngine().Scheduler(); k != SchedulerWheel {
		t.Fatalf("default scheduler = %v, want wheel", k)
	}
	if k := NewEngineWithScheduler(SchedulerHeap).Scheduler(); k != SchedulerHeap {
		t.Fatalf("heap engine reports %v", k)
	}
	if SchedulerWheel.String() != "wheel" || SchedulerHeap.String() != "heap" {
		t.Error("SchedulerKind strings wrong")
	}
}

// runKindMatrix runs the sim-package ordering tests against both queue
// implementations.
func runKindMatrix(t *testing.T, fn func(t *testing.T, e *Engine)) {
	for _, k := range schedKinds {
		k := k
		t.Run(k.String(), func(t *testing.T) { fn(t, NewEngineWithScheduler(k)) })
	}
}

func TestBothKindsOrdering(t *testing.T) {
	runKindMatrix(t, func(t *testing.T, e *Engine) {
		var order []int
		e.Schedule(10, func() { order = append(order, 2) })
		e.Schedule(5, func() { order = append(order, 1) })
		e.Schedule(5000, func() { order = append(order, 4) }) // overflow horizon
		e.Schedule(20, func() { order = append(order, 3) })
		e.Run()
		for i, v := range order {
			if v != i+1 {
				t.Fatalf("wrong order: %v", order)
			}
		}
	})
}

func TestBothKindsSameTickFIFO(t *testing.T) {
	runKindMatrix(t, func(t *testing.T, e *Engine) {
		var order []int
		// Same-tick burst straddling the overflow horizon: events land at
		// tick 2000 both via the overflow heap (scheduled from cycle 0) and
		// via direct bucket pushes (scheduled after the window advances).
		for i := 0; i < 8; i++ {
			i := i
			e.Schedule(2000, func() { order = append(order, i) })
		}
		e.Schedule(1999, func() {
			for i := 8; i < 16; i++ {
				i := i
				e.Schedule(1, func() { order = append(order, i) })
			}
		})
		e.Run()
		if len(order) != 16 {
			t.Fatalf("ran %d events", len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("same-tick FIFO violated: %v", order)
			}
		}
	})
}

// schedOp is one step of a scripted scheduler workload.
type schedOp struct {
	kind  byte // 0 = schedule, 1 = cancel, 2 = step, 3 = run-until
	delay Time
	pick  int // which outstanding ID to cancel (cancel may be stale)
}

// replay drives an engine through a scripted workload and returns the
// dispatch log: (time, label) per dispatched event, plus each Cancel result.
func replay(kind SchedulerKind, ops []schedOp) (log []string) {
	e := NewEngineWithScheduler(kind)
	var ids []EventID
	label := 0
	for _, op := range ops {
		switch op.kind % 4 {
		case 0:
			l := label
			label++
			ids = append(ids, e.Schedule(op.delay, func() {
				log = append(log, fmt.Sprintf("run %d @%d", l, e.Now()))
			}))
		case 1:
			if len(ids) == 0 {
				continue
			}
			id := ids[op.pick%len(ids)]
			log = append(log, fmt.Sprintf("cancel=%v", e.Cancel(id)))
		case 2:
			log = append(log, fmt.Sprintf("step=%v pending=%d", e.Step(), e.Pending()))
		case 3:
			at := e.RunUntil(e.Now() + op.delay)
			log = append(log, fmt.Sprintf("until=%d pending=%d", at, e.Pending()))
		}
	}
	e.Run()
	log = append(log, fmt.Sprintf("end @%d executed=%d", e.Now(), e.Executed))
	return log
}

// TestPropertySchedulerEquivalence drives both implementations through
// randomized interleaved Schedule/Cancel/Step/RunUntil sequences — including
// same-tick bursts, far-future horizons, double cancels, and cancels of
// already-dispatched events — and requires identical observable behavior.
func TestPropertySchedulerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(120)
		ops := make([]schedOp, n)
		for i := range ops {
			var delay Time
			switch rng.Intn(4) {
			case 0:
				delay = 0 // same-cycle burst
			case 1:
				delay = Time(rng.Intn(16))
			case 2:
				delay = Time(rng.Intn(1024))
			case 3:
				delay = Time(rng.Intn(100_000)) // deep overflow
			}
			ops[i] = schedOp{kind: byte(rng.Intn(4)), delay: delay, pick: rng.Intn(1 << 16)}
		}
		want := replay(SchedulerHeap, ops)
		got := replay(SchedulerWheel, ops)
		if len(want) != len(got) {
			t.Fatalf("seed %d: log lengths differ: heap %d wheel %d", seed, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: log[%d] differs:\nheap:  %s\nwheel: %s", seed, i, want[i], got[i])
			}
		}
	}
}

// FuzzScheduler feeds arbitrary op streams to both implementations and
// requires identical pop order, identical Cancel results, and no panics.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 0, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 2, 2, 2})
	f.Add([]byte{0, 255, 3, 100, 1, 1, 1, 1, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []schedOp
		for i := 0; i+1 < len(data) && len(ops) < 512; i += 2 {
			delay := Time(data[i+1])
			if data[i]&0x80 != 0 {
				delay *= 997 // stretch some delays past the wheel horizon
			}
			ops = append(ops, schedOp{kind: data[i] & 3, delay: delay, pick: int(data[i] >> 2)})
		}
		want := replay(SchedulerHeap, ops)
		got := replay(SchedulerWheel, ops)
		if len(want) != len(got) {
			t.Fatalf("log lengths differ: heap %d wheel %d", len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("log[%d]: heap %q wheel %q", i, want[i], got[i])
			}
		}
	})
}

// TestCancelTwiceAfterRecycle is the double-cancel regression: a stale
// EventID whose record has been recycled for a newer event must not cancel
// (or corrupt) that newer event.
func TestCancelTwiceAfterRecycle(t *testing.T) {
	runKindMatrix(t, func(t *testing.T, e *Engine) {
		ran := false
		id := e.Schedule(4, func() { t.Error("canceled event ran") })
		if !e.Cancel(id) {
			t.Fatal("first cancel failed")
		}
		// The record is now on the free list; this reuses it.
		id2 := e.Schedule(6, func() { ran = true })
		if e.Cancel(id) {
			t.Fatal("stale cancel claimed success")
		}
		e.Run()
		if !ran {
			t.Fatal("recycled event was killed by a stale cancel")
		}
		if e.Cancel(id2) {
			t.Fatal("cancel after dispatch claimed success")
		}
	})
}

// TestCancelAfterDispatchRecycle covers the dispatch-side recycle: an ID for
// an event that already ran must stay inert after its record is reused.
func TestCancelAfterDispatchRecycle(t *testing.T) {
	runKindMatrix(t, func(t *testing.T, e *Engine) {
		var stale EventID
		ran := 0
		stale = e.Schedule(1, func() {})
		e.Run()
		id2 := e.Schedule(3, func() { ran++ }) // reuses the record
		if e.Cancel(stale) {
			t.Fatal("stale post-dispatch cancel claimed success")
		}
		_ = id2
		e.Run()
		if ran != 1 {
			t.Fatalf("recycled event ran %d times", ran)
		}
	})
}

// TestCancelSelfInsideCallback: canceling your own (currently dispatching)
// event must be a no-op — the record is already released.
func TestCancelSelfInsideCallback(t *testing.T) {
	runKindMatrix(t, func(t *testing.T, e *Engine) {
		var id EventID
		id = e.Schedule(2, func() {
			if e.Cancel(id) {
				t.Error("self-cancel inside callback claimed success")
			}
		})
		e.Run()
	})
}

// TestSteadyStateZeroAlloc verifies the wheel hot path allocates nothing in
// steady state: pooled event records, no interface-dispatch escapes, no
// per-tick garbage — for near-wheel deltas, same-tick bursts, and the
// overflow horizon alike.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cases := []struct {
		name  string
		delay Time
	}{
		{"near", 5},
		{"sametick", 0},
		{"overflow", 5000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pool and the overflow heap's capacity.
			for i := 0; i < 64; i++ {
				e.Schedule(tc.delay, fn)
			}
			for e.Step() {
			}
			avg := testing.AllocsPerRun(200, func() {
				e.Schedule(tc.delay, fn)
				e.Schedule(tc.delay, fn)
				e.Step()
				e.Step()
			})
			if avg != 0 {
				t.Fatalf("steady-state schedule+step allocates %.1f objects", avg)
			}
		})
	}
}

// TestWatchdogDisarmStale exercises the watchdog double-cancel hazard: Disarm
// after the check already fired (stale pending ID), double Disarm, and
// re-Arm cycles must never kill an unrelated recycled event.
func TestWatchdogDisarmStale(t *testing.T) {
	e := NewEngine()
	outstanding := true
	w := NewWatchdog(e, 10, func() bool { return outstanding }, nil)
	w.Arm()
	// Keep progress flowing so the check keeps re-arming (recycling its
	// event record each firing), then disarm twice with work interleaved.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 50 {
			e.Schedule(3, tick)
		}
	}
	e.Schedule(3, tick)
	e.RunUntil(60)
	w.Disarm()
	victim := false
	e.Schedule(100, func() { victim = true }) // may reuse the check's record
	w.Disarm()                                // stale: must not cancel victim
	outstanding = false
	e.Run()
	if !victim {
		t.Fatal("stale watchdog Disarm canceled an unrelated event")
	}
	if w.Tripped() {
		t.Fatal("watchdog tripped despite steady progress")
	}
}

// BenchmarkSchedulerOnly measures the queue alone: a standing population of
// self-rescheduling events, no model code. Horizon shapes: uniform near
// deltas (the machine's common case), same-tick bursts, bursty mixes that
// straddle the wheel horizon, and far-future overflow traffic.
func BenchmarkSchedulerOnly(b *testing.B) {
	shapes := []struct {
		name  string
		delay func(i int) Time
	}{
		{"uniform", func(i int) Time { return Time(1 + i%64) }},
		{"sametick", func(i int) Time { return 0 }},
		{"bursty", func(i int) Time {
			if i%16 == 0 {
				return Time(1 + (i%8)*700) // periodically straddle the horizon
			}
			return Time(i % 8)
		}},
		{"farfuture", func(i int) Time { return Time(2048 + i%4096) }},
	}
	for _, kind := range schedKinds {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%s", kind, sh.name), func(b *testing.B) {
				e := NewEngineWithScheduler(kind)
				i := 0
				var fn func()
				fn = func() {
					e.Schedule(sh.delay(i), fn)
					i++
				}
				for j := 0; j < 512; j++ {
					e.Schedule(sh.delay(i), fn)
					i++
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					e.Step()
				}
			})
		}
	}
}
