// Package serving is the one serving core behind both entry points to the
// system: repro.Engine wraps it with option parsing, the merge policy and
// an ops endpoint; dist.Server wraps it with a TCP accept loop and the
// ingest/ship verbs. A partition server is an engine with a socket in
// front of it, so everything the two share lives here exactly once:
//
//   - the generation registry: the current snapshot+searcher-pool pair,
//     reference-counted so a swap never drops an in-flight search, plus
//     the set of live generations and in-progress builds that answers "is
//     this segment directory still in use";
//   - directory refresh and segment GC: Refresh, Commit (run a storage
//     commit under the commit lock, then refresh) and Sweep;
//   - the directory's running collection statistics, which every append
//     and merge reads and carries to the generation it commits (Commit,
//     PlanMerge);
//   - the query pipeline (search.go): validate, pool wait, execute,
//     metrics, trace — for one request and for a sub-batched worker
//     fan-out.
package serving

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colbm"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ErrClosed is returned by every entry point of a closed core.
var ErrClosed = errors.New("repro: engine is closed")

// Config is the serving-side configuration of a core. The zero value is
// what a partition server runs with and what a zero-option Engine resolves
// to: GOMAXPROCS searchers, no slow-query log (the latency and pool-wait
// histograms are always on). A request that finds every searcher busy
// waits in the pool; shedding load is the broker's job
// (dist.WithAdmission).
type Config struct {
	VectorSize int // tuples per vector in every query pipeline (0 = the searcher default)
	Searchers  int // searcher pool size (< 1 = GOMAXPROCS)

	SlowQuery time.Duration // keep traces of queries at or over this (0 = off)
	TraceRate float64       // fraction of queries traced regardless of duration
}

// Core serves ranked searches over a swappable sequence of index
// generations. It is safe for concurrent use.
//
// Generation swap: the core holds one reference on the current generation
// and every search holds one for its duration. Install (and Refresh /
// Commit, which install what they open) publishes a new snapshot+pool pair
// and drops the core's reference on the old one; searches already running
// finish on the generation they acquired, whose storage closes when the
// last reference drains. Acquire re-validates the current pointer after
// incrementing, so a concurrent swap-and-drain can never hand out a closed
// generation.
type Core struct {
	cfg    Config
	tracer *trace.Tracer

	queries  *metrics.Histogram
	poolWait *metrics.Histogram
	// inflight counts ranked searches in the pipeline, waiting for a
	// searcher or executing (Metrics reports it).
	inflight atomic.Int64

	cur    atomic.Pointer[Gen]
	closed atomic.Bool

	// The segmented directory served, the chunk cache every generation
	// opens against (it outlives them, so a refresh keeps unchanged
	// segments' chunks warm, and a removed segment's frames are dropped from
	// it), and whether the directory's statistics are externally
	// coordinated.
	dir      string
	chunks   *colbm.Manager
	external bool

	// commitMu serializes everything that rewrites SEGMENTS.json, swaps the
	// current generation, or deletes segment directories.
	commitMu sync.Mutex
	// stats is the directory's running collection statistics, guarded by
	// commitMu: folded by the first commit or merge plan that needs them,
	// then carried by every commit that hands them to storage.
	stats storage.RunningStats
	// regMu guards the live-generation set and the set of segment
	// directories being built; together they are the GC's in-use set.
	regMu    sync.Mutex
	live     map[*Gen]struct{}
	building map[string]bool
}

// metricsWindow is the trailing window the latency quantiles cover.
const (
	metricsWindow = 2 * time.Minute
	metricsSlices = 8
)

func newCore(cfg Config) *Core {
	if cfg.Searchers < 1 {
		cfg.Searchers = runtime.GOMAXPROCS(0)
	}
	return &Core{
		cfg:      cfg,
		tracer:   trace.NewTracer(cfg.SlowQuery, cfg.TraceRate, 0),
		queries:  metrics.NewHistogram(metricsWindow, metricsSlices),
		poolWait: metrics.NewHistogram(metricsWindow, metricsSlices),
		live:     make(map[*Gen]struct{}),
		building: make(map[string]bool),
	}
}

// OpenDir returns a core serving the current generation of an index
// directory, with live-commit support (Refresh, Commit, Sweep) — the one
// way to make a core. Every generation the core opens reads through
// chunks, the buffer manager the caller built (and so chose the budget of)
// for this core alone.
func OpenDir(dir string, chunks *colbm.Manager, cfg Config) (*Core, error) {
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		return nil, err
	}
	snap, err := storage.OpenSegmented(dir, chunks)
	if err != nil {
		return nil, err
	}
	c := newCore(cfg)
	c.dir, c.chunks, c.external = dir, chunks, sm.External
	c.installLocked(snap, sm.Names())
	return c, nil
}

// Dir returns the segmented directory served.
func (c *Core) Dir() string { return c.dir }

// Writable reports whether Commit can write this core's index: nil for a
// directory whose statistics are its own; an error matching
// storage.ErrExternalStats — the one refusal every append, merge and
// install path reports — for a directory marked External (dist partitions
// built with global statistics).
func (c *Core) Writable() error {
	if c.external {
		return fmt.Errorf("serving: %q: %w", c.dir, storage.ErrExternalStats)
	}
	return nil
}

// Gen is one served index generation: an immutable snapshot plus its
// searcher pool, reference-counted. Obtain one with Core.Acquire and
// Release it when done; the search methods are in search.go.
type Gen struct {
	c    *Core
	snap *ir.Snapshot
	pool *ir.SearcherPool
	// segs are the segment directory names this generation references —
	// what segment GC must keep while the generation is live.
	segs []string

	refs      atomic.Int64
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Snapshot returns the generation's segment set, valid until Release.
func (g *Gen) Snapshot() *ir.Snapshot { return g.snap }

// Pool returns the generation's searcher pool, for the non-ranked paths
// (boolean search, plan explanation) that run outside the pipeline.
func (g *Gen) Pool() *ir.SearcherPool { return g.pool }

// Release drops one reference; the last one out closes the snapshot's
// storage, leaves the live set, and reclaims the segments only this
// generation still referenced. A late acquirer that lost the swap race may
// push the count 0->1->0 again; the Once keeps the close single-shot, and
// the loser never uses the generation (its re-check of the current
// pointer fails first).
func (g *Gen) Release() {
	if g.refs.Add(-1) != 0 {
		return
	}
	g.closeOnce.Do(func() {
		g.closeErr = g.snap.Close()
		g.c.regMu.Lock()
		delete(g.c.live, g)
		g.c.regMu.Unlock()
		// Anyone who observes done may rely on the generation being out of
		// the live set (Close's final sweep depends on this ordering).
		close(g.done)
		// After Close begins, its final sweep covers this generation.
		if len(g.segs) > 0 && !g.c.closed.Load() {
			go g.c.sweep(g.segs)
		}
	})
}

// Acquire takes a reference on the current generation.
func (c *Core) Acquire() (*Gen, error) {
	for {
		g := c.cur.Load()
		if g == nil {
			return nil, ErrClosed
		}
		g.refs.Add(1)
		if c.cur.Load() == g {
			return g, nil
		}
		g.Release()
	}
}

// Snapshot returns the current generation's segment set without taking a
// reference (nil after Close) — for inspection only: the storage behind it
// closes once a later swap drains.
func (c *Core) Snapshot() *ir.Snapshot {
	if g := c.cur.Load(); g != nil {
		return g.snap
	}
	return nil
}

// Install makes snap the current generation and begins draining the
// previous one; segs names the segment directories snap reads. A closed
// core refuses with ErrClosed and closes snap.
func (c *Core) Install(snap *ir.Snapshot, segs []string) error {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed.Load() {
		snap.Close()
		return ErrClosed
	}
	c.installLocked(snap, segs)
	return nil
}

func (c *Core) installLocked(snap *ir.Snapshot, segs []string) {
	g := &Gen{
		c:    c,
		snap: snap,
		pool: ir.NewSnapshotSearcherPool(snap, c.cfg.VectorSize, c.cfg.Searchers),
		segs: segs,
		done: make(chan struct{}),
	}
	g.refs.Store(1)
	c.regMu.Lock()
	c.live[g] = struct{}{}
	c.regMu.Unlock()
	if old := c.cur.Swap(g); old != nil {
		old.Release()
	}
}

// Refresh re-reads the directory's super-manifest and, if a newer
// generation was committed (by Commit, another handle, or another
// process), opens and installs it.
func (c *Core) Refresh() error {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	return c.refreshLocked()
}

func (c *Core) refreshLocked() error {
	cur := c.cur.Load()
	if cur == nil {
		return ErrClosed
	}
	sm, err := storage.ReadSegments(c.dir)
	if err != nil {
		return err
	}
	if sm.Generation <= cur.snap.Gen() {
		return nil
	}
	snap, err := storage.OpenSegmented(c.dir, c.chunks)
	if err != nil {
		return err
	}
	c.installLocked(snap, sm.Names())
	return nil
}

// Commit runs fn — a storage commit that writes the directory's next
// generation (append, merge, manifest install) — under the commit lock,
// then refreshes serving to what it committed. fn gets the directory's
// running statistics (storage.RunningStats) to hand to the storage call
// that commits; a commit that does not take them leaves them describing
// an older generation, and the next writer that needs them folds them
// again. fn does not run on a closed core, nor on one that is not
// Writable.
func (c *Core) Commit(fn func(st *storage.RunningStats) error) error {
	if err := c.Writable(); err != nil {
		return err
	}
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	if err := fn(&c.stats); err != nil {
		return err
	}
	return c.refreshLocked()
}

// PlanMerge returns the run of segments a tiered merge to maxSegments
// would merge in the directory's current generation (nil when none is
// due) and the statistics a build of it reads — copied under the commit
// lock, so the commits that land while the run builds
// (storage.BuildMergedSegment) cannot change them.
func (c *Core) PlanMerge(maxSegments int) ([]string, *storage.RunningStats, error) {
	if err := c.Writable(); err != nil {
		return nil, nil, err
	}
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed.Load() {
		return nil, nil, ErrClosed
	}
	return c.stats.PlanMerge(c.dir, maxSegments)
}

// Building marks a segment directory as under construction so no sweep
// removes it before its commit; call the returned func when the build has
// been committed or abandoned.
func (c *Core) Building(name string) (done func()) {
	c.regMu.Lock()
	c.building[name] = true
	c.regMu.Unlock()
	return func() {
		c.regMu.Lock()
		delete(c.building, name)
		c.regMu.Unlock()
	}
}

// Sweep removes every segment directory nothing references anymore:
// neither the manifest's current generation, nor a live generation
// (readers drain first), nor a build in progress. Callers sweep at points
// where no segment can be mid-construction outside Building — after a
// merge or install commit, after a split; Close sweeps too.
func (c *Core) Sweep() { c.sweep(nil) }

// sweep is Sweep restricted to the named candidates (nil = every segment
// directory). A draining generation passes its own segments: those were
// committed long ago, so reclaiming them can never touch a segment some
// writer the core does not know about is still shipping or building.
// Serialized with commits, so it never observes a commit half-done. Best
// effort: a failed sweep retries at the next drain, commit or Close.
func (c *Core) sweep(only []string) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	keep := make(map[string]bool)
	c.regMu.Lock()
	for g := range c.live {
		for _, name := range g.segs {
			keep[name] = true
		}
	}
	for name := range c.building {
		keep[name] = true
	}
	c.regMu.Unlock()
	removed, _ := storage.SweepSegments(c.dir, func(name string) bool {
		return keep[name] || (only != nil && !slices.Contains(only, name))
	})
	// A removed segment's cached chunks go with it: under an unbounded
	// budget nothing else would ever release them, and under a bounded one
	// they would squat on budget until the clock hand cycled past.
	for _, name := range removed {
		c.chunks.DropPrefix(name + ".")
	}
}

// Close stops serving: Acquire fails with ErrClosed from now on, searches
// already running finish on their generation, and Close blocks until
// every generation has drained and released its storage, returning the
// first storage-close error, and then sweeps the directory one last time.
// Closing twice is a no-op.
func (c *Core) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.commitMu.Lock()
	g := c.cur.Swap(nil)
	c.commitMu.Unlock()
	// Snapshot the live set BEFORE dropping the core's reference: an idle
	// current generation drains (and leaves the set) synchronously inside
	// Release, and its storage-close error must still be collected.
	c.regMu.Lock()
	waiting := make([]*Gen, 0, len(c.live))
	for old := range c.live {
		waiting = append(waiting, old)
	}
	c.regMu.Unlock()
	if g != nil {
		g.Release()
	}
	var err error
	for _, old := range waiting {
		<-old.done
		if err == nil {
			err = old.closeErr
		}
	}
	c.Sweep()
	return err
}

// Metrics is one coherent snapshot of a core's serving-side metrics.
type Metrics struct {
	// Queries is the latency distribution of completed requests.
	Queries metrics.HistSnapshot
	// PoolWait is the distribution of time spent waiting for a pooled
	// searcher; a growing p99 here is the leading indicator of
	// saturation, visible before request latency degrades.
	PoolWait metrics.HistSnapshot
	// Inflight is the number of ranked searches in the pipeline right
	// now, waiting for a searcher or executing.
	Inflight int64
	// Storage is the chunk-cache snapshot of the serving generation (hits,
	// misses, singleflight shares, evictions, occupancy, recycled read
	// buffers and the free list they come from) — the buffer
	// manager shared across generations.
	Storage colbm.CacheStats
	// Gen is the serving generation.
	Gen uint64
}

// Metrics returns the core's serving metrics. Safe for concurrent use and
// cheap enough to poll (it merges fixed-size bucket arrays). A closed core
// has released its storage and reports zeros.
func (c *Core) Metrics() Metrics {
	g, err := c.Acquire()
	if err != nil {
		return Metrics{}
	}
	defer g.Release()
	m := Metrics{
		Queries:  c.queries.Snapshot(),
		PoolWait: c.poolWait.Snapshot(),
		Inflight: c.inflight.Load(),
		Gen:      g.snap.Gen(),
	}
	if cache := g.snap.Primary().Cache; cache != nil {
		m.Storage = cache.Stats()
	}
	return m
}

// SlowQueries returns the kept query traces, worst first.
func (c *Core) SlowQueries() []trace.QueryTrace { return c.tracer.SlowQueries() }

// SlowThreshold returns the slow-query log's keep threshold (0 = off).
func (c *Core) SlowThreshold() time.Duration { return c.tracer.SlowThreshold() }
