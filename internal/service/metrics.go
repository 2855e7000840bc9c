package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the service's own instrumentation (as opposed to the
// simulated machines'): admission counters, cache effectiveness, and a
// bounded reservoir of job latencies for percentile reporting.
type metrics struct {
	submitted   atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	canceled    atomic.Uint64
	rejected    atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	dedups      atomic.Uint64

	mu sync.Mutex
	// lat is a ring of the most recent completed-job latencies; count and
	// sum cover the full history so the mean stays exact.
	lat      []time.Duration
	latNext  int
	latCount uint64
	latSum   time.Duration
	latMax   time.Duration
}

// latencyWindow bounds the percentile reservoir; percentiles reflect the
// most recent window, which is what capacity planning wants anyway.
const latencyWindow = 4096

func newMetrics() *metrics {
	return &metrics{lat: make([]time.Duration, 0, latencyWindow)}
}

func (m *metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.lat) < latencyWindow {
		m.lat = append(m.lat, d)
	} else {
		m.lat[m.latNext] = d
		m.latNext = (m.latNext + 1) % latencyWindow
	}
	m.latCount++
	m.latSum += d
	if d > m.latMax {
		m.latMax = d
	}
}

func (m *metrics) meanLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latCount == 0 {
		return 0
	}
	return m.latSum / time.Duration(m.latCount)
}

// LatencyStats summarizes completed-job wall latency.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// CacheStats summarizes the content-addressed cache.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Dedups counts submissions coalesced onto identical in-flight jobs
	// (singleflight) — work avoided before it ever reached the cache.
	Dedups  uint64  `json:"dedups"`
	HitRate float64 `json:"hit_rate"`
	// Evictions counts entries dropped by LRU pressure; a high rate means
	// the cache is undersized for the working set.
	Evictions uint64 `json:"evictions"`
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	// JobsQueued / JobsRunning are point-in-time gauges of non-terminal
	// jobs.
	JobsQueued  int `json:"jobs_queued"`
	JobsRunning int `json:"jobs_running"`

	Cache   CacheStats   `json:"cache"`
	Latency LatencyStats `json:"latency"`
}

// HealthStatus is the /healthz document. State is "ok" or "draining"; a
// draining server finishes accepted work but admits no new jobs.
type HealthStatus struct {
	State string `json:"state"`
}

// Health snapshots drain state for /healthz.
func (s *Server) Health() HealthStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return HealthStatus{State: "draining"}
	}
	return HealthStatus{State: "ok"}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Metrics snapshots the service counters.
func (s *Server) Metrics() MetricsSnapshot {
	m := s.metrics
	s.mu.Lock()
	queued, running, draining := s.nQueued, s.nRunning, s.draining
	s.mu.Unlock()
	snap := MetricsSnapshot{
		QueueDepth:    s.queue.Depth(),
		QueueCap:      s.queue.Cap(),
		Workers:       s.cfg.Workers,
		Draining:      draining,
		JobsSubmitted: m.submitted.Load(),
		JobsCompleted: m.completed.Load(),
		JobsFailed:    m.failed.Load(),
		JobsCanceled:  m.canceled.Load(),
		JobsRejected:  m.rejected.Load(),
		JobsQueued:    queued,
		JobsRunning:   running,
		Cache: CacheStats{
			Entries:   s.cache.Len(),
			Hits:      m.cacheHits.Load(),
			Misses:    m.cacheMisses.Load(),
			Dedups:    m.dedups.Load(),
			Evictions: s.cache.Evictions(),
		},
	}
	if total := snap.Cache.Hits + snap.Cache.Misses; total > 0 {
		snap.Cache.HitRate = float64(snap.Cache.Hits) / float64(total)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	snap.Latency.Count = m.latCount
	if m.latCount > 0 {
		snap.Latency.MeanMS = ms(m.latSum / time.Duration(m.latCount))
		snap.Latency.MaxMS = ms(m.latMax)
		window := append([]time.Duration(nil), m.lat...)
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		snap.Latency.P50MS = ms(percentile(window, 50))
		snap.Latency.P90MS = ms(percentile(window, 90))
		snap.Latency.P99MS = ms(percentile(window, 99))
	}
	return snap
}

// percentile reads the p-th percentile from a sorted window (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
