// Package metrics is the serving-side metrics core: allocation-light
// counters, gauges, EWMAs, and sliding-window latency histograms with
// quantile snapshots. Every type here is safe for concurrent use and
// designed to sit on a query hot path — an Observe is a handful of
// atomic or short-critical-section operations on fixed-size arrays, no
// allocation, no sorting, no sample retention.
//
// The engine uses it for searcher-pool wait and per-request latency,
// the storage layer's counters are surfaced through the same snapshot
// API, and the dist broker feeds its hedge budget from a
// per-group Histogram (see internal/qos).
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any value, but counters are conventionally
// monotone; use Gauge for values that go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, inflight count).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// EWMA is an exponentially weighted moving average over durations with
// the same 3/4 decay the dist broker uses for replica health: one
// observation moves the estimate a quarter of the way to the sample, so
// the estimate tracks shifts within a handful of observations without
// whipsawing on a single outlier.
type EWMA struct {
	mu sync.Mutex
	v  time.Duration
}

// Observe folds one sample into the average. The first sample seeds the
// estimate directly.
func (e *EWMA) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	if e.v == 0 {
		e.v = d
	} else {
		e.v = (3*e.v + d) / 4
	}
	e.mu.Unlock()
}

// Value returns the current estimate (0 until the first observation).
func (e *EWMA) Value() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}
