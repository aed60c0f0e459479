package repro

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/serving"
)

// engineConfig is the resolved configuration an Engine is opened with.
// Options validate eagerly where they can and record errors otherwise;
// Open surfaces every accumulated problem at once instead of failing on
// the first knob — the "validating entry point" discipline this API
// replaces the old bag of positional constructors with.
type engineConfig struct {
	// The serving-side knobs (searchers, vector size, result cache,
	// admission, slow-query log, trace sampling) are the serving core's
	// configuration, handed to it as is.
	serving.Config

	pool int64 // WithBufferPoolBytes: buffer pool capacity in bytes

	storageDir string // WithStorageDir: persist to / serve from this directory
	autoMerge  int    // WithAutoMerge: background merge above this segment count (0 = off)

	opsAddr string // WithOpsServer: HTTP ops endpoint listen address ("" = off)

	errs []error
}

// Option configures an Engine at Open time.
type Option func(*engineConfig)

func defaultEngineConfig() engineConfig {
	return engineConfig{
		Config: serving.Config{Searchers: runtime.GOMAXPROCS(0)},
	}
}

// WithBufferPoolBytes caps the ColumnBM buffer manager at the given
// capacity in bytes (0 = unbounded, everything stays hot once loaded) —
// compressed chunks, clock eviction, singleflight — over the engine's
// index files, whichever entry point opened them.
func WithBufferPoolBytes(capacityBytes int64) Option {
	return func(c *engineConfig) {
		if capacityBytes < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: negative buffer pool capacity %d", capacityBytes))
			return
		}
		c.pool = capacityBytes
	}
}

// WithStorageDir names the directory Open keeps the engine's index in, and
// which outlives the engine (without it Open uses a temporary directory
// that Close removes). If dir already holds an index directory, Open
// serves it directly — zero corpus re-parsing, zero index building;
// otherwise Open indexes the collection as the directory's first segment.
// Use OpenDir to open an existing index directory without a collection in
// hand.
func WithStorageDir(dir string) Option {
	return func(c *engineConfig) {
		if dir == "" {
			c.errs = append(c.errs, fmt.Errorf("repro: empty storage directory"))
			return
		}
		c.storageDir = dir
	}
}

// WithSegments does nothing: every index directory is segmented, so every
// engine already accepts Engine.Add and WithAutoMerge. It remains
// only because bench/ (frozen by BENCHMARK.json) still passes it.
func WithSegments() Option { return func(*engineConfig) {} }

// WithAutoMerge starts the engine's background merger: whenever the
// segment count exceeds maxSegments (after an Add, or at open), the
// cheapest adjacent run of segments is merged into one — re-baking
// materialized score columns against current collection statistics — and
// the replaced directories are garbage-collected once no in-flight search
// references them. maxSegments must be at least 1.
func WithAutoMerge(maxSegments int) Option {
	return func(c *engineConfig) {
		if maxSegments < 1 {
			c.errs = append(c.errs, fmt.Errorf("repro: auto-merge segment bound %d < 1", maxSegments))
			return
		}
		c.autoMerge = maxSegments
	}
}

// WithResultCache enables the engine-level result cache with room for the
// given number of responses. The cache is an LRU keyed on normalized terms
// + k + resolved strategy; indexes are immutable, so entries never need
// invalidation, and a hit is served without acquiring a searcher at all —
// repeat queries cost a map lookup and a top-k copy. Hit/miss counters are
// surfaced by Engine.ResultCacheStats.
func WithResultCache(entries int) Option {
	return func(c *engineConfig) {
		if entries < 1 {
			c.errs = append(c.errs, fmt.Errorf("repro: result cache size %d < 1", entries))
			return
		}
		c.ResultCache = entries
	}
}

// WithAdmissionControl turns on load shedding for Search and SearchMany:
// instead of queueing without bound when every searcher is busy, a
// request whose estimated queue wait (queue depth x EWMA service time /
// pool width) exceeds its context deadline — or that finds more than
// maxQueue requests already waiting, with maxQueue 0 meaning no hard cap
// — is rejected immediately with an error matching ErrOverloaded. Shed
// requests cost a counter bump instead of a slot in a collapsing queue,
// which keeps the p99 of *admitted* requests bounded at any offered
// load. Requests without deadlines are shed only by the hard cap.
func WithAdmissionControl(maxQueue int) Option {
	return func(c *engineConfig) {
		if maxQueue < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: negative admission queue cap %d", maxQueue))
			return
		}
		c.Admission = true
		c.AdmissionQueue = maxQueue
	}
}

// WithVectorSize sets the number of tuples per vector in every query
// pipeline (0 = the 1024 default; the paper's §4 ablation sweeps this).
func WithVectorSize(n int) Option {
	return func(c *engineConfig) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: negative vector size %d", n))
			return
		}
		c.VectorSize = n
	}
}

// WithSearchers sets the size of the searcher pool: the maximum number of
// queries executing concurrently (further Search calls queue). The default
// is GOMAXPROCS.
func WithSearchers(n int) Option {
	return func(c *engineConfig) {
		if n < 1 {
			c.errs = append(c.errs, fmt.Errorf("repro: searcher pool size %d < 1", n))
			return
		}
		c.Searchers = n
	}
}

// WithSlowQueryThreshold arms the slow-query log: every request records
// a span trace (admission, pool wait, plan build, per-operator
// execution), and those that finish at or over d are kept in a bounded
// in-memory log — Engine.SlowQueries returns the worst recent ones, and
// the ops endpoint (WithOpsServer) renders them at /debug/slow. Whether
// a query was slow is only known once it finishes, so the threshold
// implies tail-based recording of every query; the recorder is
// arena-backed and allocation-light, costing a few percent on the
// saturated hot path. 0 (the default) disables the log; a trace can
// still be requested per query via SearchRequest.Trace.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *engineConfig) {
		if d < 0 {
			c.errs = append(c.errs, fmt.Errorf("repro: negative slow-query threshold %v", d))
			return
		}
		c.SlowQuery = d
	}
}

// WithTraceSampling keeps a random fraction of query traces regardless
// of duration — the "what does a *normal* request look like" complement
// to the slow-query threshold. rate is the fraction in [0, 1]; sampled
// traces land in the same log SlowQueries and /debug/slow read.
func WithTraceSampling(rate float64) Option {
	return func(c *engineConfig) {
		if rate < 0 || rate > 1 || math.IsNaN(rate) {
			c.errs = append(c.errs, fmt.Errorf("repro: trace sampling rate %v outside [0, 1]", rate))
			return
		}
		c.TraceRate = rate
	}
}

// WithOpsServer starts an HTTP ops endpoint on addr (host:port; port 0
// picks a free port, see Engine.OpsAddr) serving Prometheus text-format
// metrics at /metrics (every counter, gauge, and latency histogram
// behind MetricsSnapshot), the standard pprof profiles at
// /debug/pprof/*, an engine health document at /health, and rendered
// slow-query traces at /debug/slow. The endpoint shares the engine's
// lifetime: Close shuts it down.
func WithOpsServer(addr string) Option {
	return func(c *engineConfig) {
		if addr == "" {
			c.errs = append(c.errs, fmt.Errorf("repro: empty ops server address"))
			return
		}
		c.opsAddr = addr
	}
}
