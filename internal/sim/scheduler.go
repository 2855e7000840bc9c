package sim

import "container/heap"

// SchedulerKind selects the event-queue implementation behind an Engine.
type SchedulerKind int

const (
	// SchedulerWheel is the hierarchical timing wheel: O(1) push/pop for the
	// near-future deltas that dominate a machine simulation (cache and NoC
	// latencies), with an overflow heap for far-future events (watchdog
	// checks, fault-outage toggles). It is the default.
	SchedulerWheel SchedulerKind = iota
	// SchedulerHeap is the binary-heap reference implementation the wheel is
	// differentially tested against.
	SchedulerHeap
)

func (k SchedulerKind) String() string {
	if k == SchedulerHeap {
		return "heap"
	}
	return "wheel"
}

// scheduler is the pending-event queue. Both implementations dispatch in
// strict (at, seq) order, so they are observationally identical; the
// differential tests in sched_test.go hold them to that.
type scheduler interface {
	// push enqueues an event. The event's at/seq are set by the engine; the
	// scheduler owns the linkage fields.
	push(ev *scheduledEvent)
	// pop removes and returns the earliest event with at <= limit, or nil
	// if the queue is empty or the earliest event lies beyond the limit.
	pop(limit Time) *scheduledEvent
	// remove unlinks a still-queued event (cancelation).
	remove(ev *scheduledEvent) bool
	// len reports the number of queued events.
	len() int
}

// ---- binary-heap reference implementation ----

type eventHeap []*scheduledEvent

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

func (h *eventHeap) Push(x any) {
	ev := x.(*scheduledEvent)
	ev.index = int32(len(*h))
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// heapScheduler is the reference queue: one global binary heap ordered by
// (at, seq).
type heapScheduler struct {
	events eventHeap
}

func (s *heapScheduler) push(ev *scheduledEvent) {
	heap.Push(&s.events, ev)
}

func (s *heapScheduler) pop(limit Time) *scheduledEvent {
	if len(s.events) == 0 || s.events[0].at > limit {
		return nil
	}
	return heap.Pop(&s.events).(*scheduledEvent)
}

func (s *heapScheduler) remove(ev *scheduledEvent) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(&s.events, int(ev.index))
	ev.index = -1
	return true
}

func (s *heapScheduler) len() int { return len(s.events) }
