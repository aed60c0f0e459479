package repro

import (
	"time"

	"repro/internal/colbm"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TraceSpan is one finished span of a query trace: name, start offset
// (relative to the root span), duration, attributes, and child spans.
// SearchResponse.Trace and the slow-query log are trees of these; Render
// produces the indented text profile.
type TraceSpan = trace.Span

// TraceAttr is one key/value annotation on a TraceSpan.
type TraceAttr = trace.Attr

// QueryTrace is one kept query trace: the span tree plus the trace id,
// start time, and total duration the slow-query log orders by.
type QueryTrace = trace.QueryTrace

// SlowQueries returns the engine's kept query traces, worst (longest)
// first: every query that finished over WithSlowQueryThreshold plus the
// WithTraceSampling sample, bounded to the most recent few dozen. Safe
// for concurrent use; empty without either option.
func (e *Engine) SlowQueries() []QueryTrace {
	return e.core.SlowQueries()
}

// OpsAddr returns the bound address of the WithOpsServer HTTP endpoint
// ("" without the option) — useful with port 0.
func (e *Engine) OpsAddr() string {
	return e.ops.Addr()
}

// engineOps adapts an Engine to the obs.Source the ops endpoint serves:
// every MetricsSnapshot field as a Prometheus metric, the slow-query
// log, and a health document.
type engineOps struct{ e *Engine }

func (o engineOps) OpsMetrics() []obs.Metric {
	m := o.e.MetricsSnapshot()
	seg := o.e.SegmentStats()
	return []obs.Metric{
		{Name: "repro_engine_query_seconds", Help: "request latency",
			Kind: obs.Summary, Hist: m.Queries},
		{Name: "repro_engine_pool_wait_seconds", Help: "time waiting for a pooled searcher",
			Kind: obs.Summary, Hist: m.PoolWait},
		{Name: "repro_engine_inflight", Help: "ranked searches waiting for a searcher or executing",
			Kind: obs.Gauge, Value: float64(m.Inflight)},
		{Name: "repro_engine_chunk_cache_hits_total", Help: "chunk cache hits",
			Kind: obs.Counter, Value: float64(m.Storage.Hits)},
		{Name: "repro_engine_chunk_cache_misses_total", Help: "chunk cache misses",
			Kind: obs.Counter, Value: float64(m.Storage.Misses)},
		{Name: "repro_engine_chunk_cache_evictions_total", Help: "chunk cache evictions",
			Kind: obs.Counter, Value: float64(m.Storage.Evictions)},
		{Name: "repro_engine_chunk_cache_used_bytes", Help: "chunk cache occupancy",
			Kind: obs.Gauge, Value: float64(m.Storage.Used)},
		{Name: "repro_engine_docs", Help: "documents in the serving generation",
			Kind: obs.Gauge, Value: float64(o.e.NumDocs())},
		{Name: "repro_engine_segments", Help: "segments in the serving generation",
			Kind: obs.Gauge, Value: float64(seg.Segments)},
		{Name: "repro_storage_manifest_decodes_total", Help: "segment manifests this process decoded (not written or held by it)",
			Kind: obs.Counter, Value: float64(storage.ManifestDecodes())},
		{Name: "repro_storage_manifest_bytes_read_total", Help: "segment manifest bytes this process read from disk",
			Kind: obs.Counter, Value: float64(storage.ManifestBytesRead())},
		{Name: "repro_storage_stats_folds_total", Help: "collection-statistics folds over every segment's manifest",
			Kind: obs.Counter, Value: float64(storage.StatsFolds())},
		{Name: "repro_storage_chunk_checksum_failures_total", Help: "chunk reads whose bytes failed their recorded CRC32C",
			Kind: obs.Counter, Value: float64(colbm.ChecksumFailures())},
	}
}

func (o engineOps) OpsSlowQueries() []trace.QueryTrace { return o.e.SlowQueries() }

func (o engineOps) OpsHealth() any {
	seg := o.e.SegmentStats()
	return struct {
		Closed        bool          `json:"closed"`
		Docs          int           `json:"docs"`
		Postings      int           `json:"postings"`
		Searchers     int           `json:"searchers"`
		Segments      int           `json:"segments"`
		Generation    uint64        `json:"generation"`
		SlowThreshold time.Duration `json:"slow_threshold_ns"`
	}{
		Closed:        o.e.core.Snapshot() == nil,
		Docs:          o.e.NumDocs(),
		Postings:      o.e.NumPostings(),
		Searchers:     o.e.Searchers(),
		Segments:      seg.Segments,
		Generation:    seg.Generation,
		SlowThreshold: o.e.core.SlowThreshold(),
	}
}
