package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/api"
)

// latWindow is the number of recent request latencies kept for the
// quantile estimates. A fixed ring keeps the cost per request O(1)
// and bounded regardless of traffic volume.
const latWindow = 1024

// metrics holds the daemon's expvar-style counters, all updated
// lock-free on the request path except the latency ring.
type metrics struct {
	requests  atomic.Uint64 // requests accepted
	status2xx atomic.Uint64
	status4xx atomic.Uint64
	status5xx atomic.Uint64
	retries   atomic.Uint64 // version-conflict retries inside commit loops
	conflicts atomic.Uint64 // commits rejected after exhausting retries
	overload  atomic.Uint64 // requests shed by the worker pool
	timeouts  atomic.Uint64 // requests that hit the per-request timeout

	// Codec mix of the /v1/schedule hot path: how many request bodies
	// arrived JSON vs binary.
	codecJSON   atomic.Uint64
	codecBinary atomic.Uint64

	mu sync.Mutex
	// lat is the latency ring; n counts total latencies observed.
	lat [latWindow]time.Duration // guarded by mu
	n   uint64                   // guarded by mu
}

func (m *metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.lat[m.n%latWindow] = d
	m.n++
	m.mu.Unlock()
}

func (m *metrics) countStatus(code int) {
	switch {
	case code >= 500:
		m.status5xx.Add(1)
	case code >= 400:
		m.status4xx.Add(1)
	default:
		m.status2xx.Add(1)
	}
}

// quantiles returns the p50 and p99 of the retained latency window.
func (m *metrics) quantiles() (p50, p99 time.Duration, count uint64) {
	m.mu.Lock()
	count = m.n
	k := int(count)
	if k > latWindow {
		k = latWindow
	}
	buf := make([]time.Duration, k)
	copy(buf, m.lat[:k])
	m.mu.Unlock()
	if k == 0 {
		return 0, 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(k-1))
		return buf[i]
	}
	return at(0.50), at(0.99), count
}

// metricsResponse is the GET /debug/metrics JSON shape.
type metricsResponse struct {
	Requests  uint64 `json:"requests"`
	Status2xx uint64 `json:"status_2xx"`
	Status4xx uint64 `json:"status_4xx"`
	Status5xx uint64 `json:"status_5xx"`
	// CommitRetries counts version-conflict retries across all
	// schedule commits; ConflictRejections counts requests that
	// exhausted their retry budget.
	CommitRetries      uint64  `json:"commit_retries"`
	ConflictRejections uint64  `json:"conflict_rejections"`
	OverloadRejections uint64  `json:"overload_rejections"`
	Timeouts           uint64  `json:"timeouts"`
	LatencyCount       uint64  `json:"latency_count"`
	LatencyP50Ms       float64 `json:"latency_p50_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	BookVersion        uint64  `json:"book_version"`
	// CodecJSONRequests / CodecBinaryRequests split the schedule
	// request bodies by wire codec.
	CodecJSONRequests   uint64 `json:"codec_json_requests"`
	CodecBinaryRequests uint64 `json:"codec_binary_requests"`
	// Engine carries the online lifecycle engine's counters
	// (queue depth, activations, backfills, ...); absent when the
	// daemon is not running -online.
	Engine *api.EngineStats `json:"engine,omitempty"`
}

func (m *metrics) snapshot(bookVersion uint64) metricsResponse {
	p50, p99, n := m.quantiles()
	return metricsResponse{
		Requests:            m.requests.Load(),
		Status2xx:           m.status2xx.Load(),
		Status4xx:           m.status4xx.Load(),
		Status5xx:           m.status5xx.Load(),
		CommitRetries:       m.retries.Load(),
		ConflictRejections:  m.conflicts.Load(),
		OverloadRejections:  m.overload.Load(),
		Timeouts:            m.timeouts.Load(),
		LatencyCount:        n,
		LatencyP50Ms:        float64(p50) / float64(time.Millisecond),
		LatencyP99Ms:        float64(p99) / float64(time.Millisecond),
		BookVersion:         bookVersion,
		CodecJSONRequests:   m.codecJSON.Load(),
		CodecBinaryRequests: m.codecBinary.Load(),
	}
}
