// Package server is an atomicmix fixture: a latency counter moved out
// of its lock onto sync/atomic while quantiles still reads it plainly,
// next to the typed counters the rule asks for.
package server

import (
	"sync"
	"sync/atomic"
)

type metrics struct {
	requests atomic.Uint64
	mu       sync.Mutex
	n        uint64
}

var started int64

func (m *metrics) observe() uint64 {
	m.requests.Add(1)
	atomic.AddInt64(&started, 1)
	return atomic.AddUint64(&m.n, 1) // want "sync/atomic call on field n"
}

func (m *metrics) count() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

func (m *metrics) fresh() *metrics {
	local := new(uint64)
	atomic.StoreUint64(local, 1)
	return &metrics{}
}
