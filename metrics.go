package repro

import (
	"repro/internal/metrics"
	"repro/internal/serving"
)

// LatencySnapshot is a merged view of a sliding-window latency
// histogram: observation count, mean, p50/p90/p99, and max over roughly
// the trailing two minutes of traffic.
type LatencySnapshot = metrics.HistSnapshot

// EngineMetrics is one coherent snapshot of an engine's serving-side
// metrics: request latency (Queries), searcher-pool wait (PoolWait),
// Inflight searches, the Storage chunk cache of the serving generation,
// and the serving generation itself (Gen). A dist.Server reports the
// same type.
type EngineMetrics = serving.Metrics

// MetricsSnapshot returns the engine's serving metrics. Safe for
// concurrent use; cheap enough to poll (it merges fixed-size bucket
// arrays, no sample retention anywhere). A closed engine reports zeros.
func (e *Engine) MetricsSnapshot() EngineMetrics { return e.core.Metrics() }
