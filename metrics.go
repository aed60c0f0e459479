package repro

import (
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/serving"
)

// ErrOverloaded is the sentinel shed requests wrap: when admission
// control (WithAdmissionControl on the engine, dist.WithAdmission on a
// cluster broker) rejects a request rather than queueing it past its
// deadline, the returned error matches errors.Is(err, ErrOverloaded).
// Callers typically retry against another frontend or surface a "server
// busy" response; the concrete *qos.Overload carries the wait estimate
// that triggered the shed.
var ErrOverloaded = qos.ErrOverloaded

// LatencySnapshot is a merged view of a sliding-window latency
// histogram: observation count, mean, p50/p90/p99, and max over roughly
// the trailing two minutes of traffic.
type LatencySnapshot = metrics.HistSnapshot

// EngineMetrics is one coherent snapshot of an engine's serving-side
// metrics: request latency (Queries), searcher-pool wait (PoolWait),
// Inflight searches, admission state (ServiceEstimate, Shed), the
// ResultCache, the Storage chunk cache of the serving generation, and the
// serving generation itself (Gen). A dist.Server reports the same type.
type EngineMetrics = serving.Metrics

// MetricsSnapshot returns the engine's serving metrics. Safe for
// concurrent use; cheap enough to poll (it merges fixed-size bucket
// arrays, no sample retention anywhere). A closed engine reports zeros.
func (e *Engine) MetricsSnapshot() EngineMetrics { return e.core.Metrics() }
