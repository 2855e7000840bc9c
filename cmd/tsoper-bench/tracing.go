package main

import (
	"bytes"
	"runtime/pprof"
	"sync"
	"time"
)

// tracer records the traced pass: spans the benchmark's own code wraps
// around calls into each layer, and one CPU profile of the replica. Spans
// are aggregated per name in memory (the litmus replica alone records about
// 100k), safe for the replicas' worker goroutines.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]time.Duration

	wall    time.Duration // the profiled replica's wall time
	profile []byte        // its gzipped pprof CPU profile
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]time.Duration{}}
}

// span runs f and charges its duration to name.
func (t *tracer) span(name string, f func()) {
	start := time.Now()
	f()
	t.record(name, time.Since(start))
}

func (t *tracer) record(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.mu.Unlock()
}

// total returns the summed duration of name's spans, in seconds. With two
// workers the sum is busy time and may exceed the wall time.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s time.Duration
	for _, d := range t.spans[name] {
		s += d
	}
	return s.Seconds()
}

// p50ms returns the median duration of name's spans, in milliseconds.
func (t *tracer) p50ms(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, len(t.spans[name]))
	for i, d := range t.spans[name] {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	_, med, _ := quartiles(xs)
	return med
}

// replica runs f, the traced counterpart of one untraced pass, under the
// CPU profiler and records its wall time. Work outside f (side runs,
// stage replicas) is neither profiled nor part of the overhead figure.
func (t *tracer) replica(f func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	start := time.Now()
	err := f()
	t.wall = time.Since(start)
	pprof.StopCPUProfile()
	t.profile = buf.Bytes()
	return err
}
