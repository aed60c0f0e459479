package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/storage"
)

// DefaultK is the result-list depth used when a SearchRequest leaves K
// zero (the paper's evaluation depth is 20; interactive callers usually
// want the first page).
const DefaultK = serving.DefaultK

// StrategyDefault (the Strategy zero value) asks the engine to run the
// strongest strategy, BM25TCMQ8. There is one index layout, so every
// strategy runs on every segment.
const StrategyDefault = ir.StrategyDefault

// ErrEngineClosed is returned by every entry point of a closed engine.
var ErrEngineClosed = serving.ErrClosed

// ErrReadOnly is matched by the error Engine.Add (and WithAutoMerge)
// report for the one kind of index that serves but takes no local writes:
// a directory whose statistics are coordinated outside it (a dist
// partition).
var ErrReadOnly = storage.ErrExternalStats

// The request and response types of the serving core, under the names the
// Engine API has always used.
type (
	// SearchRequest is one keyword query against an Engine: Terms, K
	// (0 = DefaultK), Strategy (zero = StrategyDefault) and the per-query
	// Trace switch.
	SearchRequest = serving.Request
	// SearchResponse is the structured result of Engine.Search: Hits,
	// Stats, the Strategy that actually ran, and the span Trace when the
	// request asked for one.
	SearchResponse = serving.Response
	// BatchResult is one request's outcome within a SearchMany batch:
	// either a response or a per-request error.
	BatchResult = serving.BatchResult
	// BatchStats aggregates one SearchMany call — the throughput-side
	// accounting that complements the per-request QueryStats.
	BatchStats = serving.BatchStats
)

// Engine is the long-lived, concurrency-safe entry point to the system: a
// serving core (internal/serving — the generation registry, searcher
// pool, query pipeline, metrics and tracing that a dist.Server wraps
// too) plus what only a standalone engine needs: option
// parsing, the Open* build-or-open dispatch, the background merge policy,
// and the ops endpoint. Construct one with Open, close it with Close.
//
// Concurrency model: storage (buffer manager, stores) is shared and
// internally synchronized; execution state is not shared — each query
// checks a whole single-owner searcher out of the current generation's
// pool, which also bounds the number of in-flight plans. Generations swap
// under a reference count: Refresh (and Add, which appends a segment and
// refreshes) installs a new snapshot+pool pair while searches already
// running keep their old one until they finish; the superseded
// generation's storage closes when its last search drains, and its
// segment directories are garbage-collected once no generation references
// them.
type Engine struct {
	cfg  engineConfig
	core *serving.Core
	ops  *obs.Server // the WithOpsServer HTTP endpoint, nil without it

	merger *merger
	merges atomic.Int64

	// root is the temporary index directory Open made for a collection
	// given without WithStorageDir; Close removes it ("" otherwise).
	root string

	closeOnce sync.Once
	closeErr  error
}

// Open builds an index over the collection and returns an Engine
// configured by the options. All option errors are reported together.
//
//	eng, err := repro.Open(coll,
//		repro.WithBufferPoolBytes(256<<20),
//		repro.WithVectorSize(1024),
//		repro.WithSearchers(8))
//
// The index always lives on real disk and is served the way OpenDir
// serves a directory. With WithStorageDir an existing index directory is
// served as-is (the collection is not re-indexed) and a missing or empty
// one is populated by indexing the collection as the directory's first
// segment. Without it the collection is indexed into a temporary
// directory the engine owns and Close removes. Every index stores every
// column of the one layout, so every strategy runs on it;
// WithBufferPoolBytes is the one way to size the buffer pool.
func Open(coll *Collection, opts ...Option) (*Engine, error) {
	if coll == nil {
		return nil, errors.New("repro: Open with nil collection")
	}
	cfg := defaultEngineConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.errs) > 0 {
		return nil, errors.Join(cfg.errs...)
	}
	var root string
	if cfg.storageDir == "" {
		var err error
		if root, err = os.MkdirTemp("", "x100-engine-"); err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		cfg.storageDir = root
	}
	e, err := populateAndOpen(coll, cfg)
	if err != nil {
		if root != "" {
			os.RemoveAll(root)
		}
		return nil, err
	}
	e.root = root
	return e, nil
}

// populateAndOpen indexes the collection as the first segment of
// cfg.storageDir unless the directory already holds an index, then serves
// it.
func populateAndOpen(coll *Collection, cfg engineConfig) (*Engine, error) {
	if _, err := storage.ReadSegments(cfg.storageDir); errors.Is(err, os.ErrNotExist) {
		if _, err := storage.AppendSegment(cfg.storageDir, coll, nil); err != nil {
			return nil, err
		}
	}
	return openDir(cfg)
}

// OpenDir opens a persisted index directory (written by Open with
// WithStorageDir, SaveIndex, AppendSegment, cmd/indexer -out, or
// dist.BuildPartitions) and serves it without any collection in hand: only
// the manifests are read up front, and posting data streams in through the
// buffer manager as queries touch it. Every segment stores the one layout,
// so every strategy runs on it; a segment whose posting table lacks a
// column fails the open, naming the segment and the column. WithStorageDir
// is rejected: the directory is the argument.
func OpenDir(dir string, opts ...Option) (*Engine, error) {
	cfg := defaultEngineConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.storageDir != "" {
		cfg.errs = append(cfg.errs,
			errors.New("repro: OpenDir already names the index directory; drop WithStorageDir"))
	}
	if len(cfg.errs) > 0 {
		return nil, errors.Join(cfg.errs...)
	}
	cfg.storageDir = dir
	return openDir(cfg)
}

// openDir serves cfg.storageDir's current generation — the one open path
// of every engine — through one buffer manager that lives as long as the
// engine, so a refresh keeps the unchanged segments' chunks warm.
func openDir(cfg engineConfig) (*Engine, error) {
	core, err := serving.OpenDir(cfg.storageDir, colbm.NewManager(cfg.pool), cfg.Config)
	if err != nil {
		return nil, err
	}
	if cfg.autoMerge > 0 {
		// A merger that can never commit should fail the open, not idle.
		if err := core.Writable(); err != nil {
			core.Close()
			return nil, fmt.Errorf("repro: WithAutoMerge: %w", err)
		}
	}
	e, err := newEngine(core, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.autoMerge > 0 {
		e.merger = newMerger(e, cfg.autoMerge)
		e.merger.notify() // an already-oversized directory merges right away
	}
	return e, nil
}

func newEngine(core *serving.Core, cfg engineConfig) (*Engine, error) {
	e := &Engine{cfg: cfg, core: core}
	if cfg.opsAddr != "" {
		srv, err := obs.Start(cfg.opsAddr, engineOps{e})
		if err != nil {
			e.Close()
			return nil, err
		}
		e.ops = srv
	}
	return e, nil
}

// Index exposes the underlying index for inspection (sizes, compression
// ratios, BM25 parameters): the first segment of the currently served
// generation. Treat it as read-only, and
// only while the engine stays open; nil after Close.
func (e *Engine) Index() *Index {
	if snap := e.core.Snapshot(); snap != nil {
		return snap.Primary()
	}
	return nil
}

// Searchers returns the concurrency bound of the searcher pool.
func (e *Engine) Searchers() int { return e.cfg.Searchers }

// NumDocs returns the document count of the serving generation, across
// all segments (0 after Close).
func (e *Engine) NumDocs() int {
	if snap := e.core.Snapshot(); snap != nil {
		return snap.NumDocs()
	}
	return 0
}

// NumPostings returns the posting count of the serving generation, across
// all segments (0 after Close).
func (e *Engine) NumPostings() int {
	if snap := e.core.Snapshot(); snap != nil {
		return snap.NumPostings()
	}
	return 0
}

// SegmentStats reports the serving generation's segment shape.
type SegmentStats struct {
	// Segments in the serving generation.
	Segments int
	// Virtual counts segments whose materialized strategies recompute
	// scores at query time because their baked columns predate the latest
	// append; the next merge re-bakes them.
	Virtual int
	// Generation of the serving snapshot: the index directory's generation,
	// 1 for a freshly built one.
	Generation uint64
	// Merges completed by this engine's background merger.
	Merges int64
}

// SegmentStats returns the serving generation's segment shape (zero value
// after Close).
func (e *Engine) SegmentStats() SegmentStats {
	snap := e.core.Snapshot()
	if snap == nil {
		return SegmentStats{}
	}
	return SegmentStats{
		Segments:   snap.NumSegments(),
		Virtual:    snap.NumVirtual(),
		Generation: snap.Gen(),
		Merges:     e.merges.Load(),
	}
}

// Search runs one keyword query. It is safe for concurrent use, honors ctx
// cancellation and deadlines (a canceled context aborts the running plan
// between vectors and returns ctx.Err()), and blocks while all pooled
// searchers are busy (nothing is shed: a request waits until a searcher
// frees or its context ends). The query runs against the generation
// current at call time; a concurrent Refresh does not disturb it.
func (e *Engine) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := e.core.Acquire()
	if err != nil {
		return SearchResponse{}, err
	}
	defer g.Release()
	return g.Search(ctx, req)
}

// SearchMany executes a batch of requests, fanning them across the
// searcher pool: up to Searchers() requests run concurrently, each worker
// holding one pooled searcher for at most one sub-batch (large batches
// split, so early requests complete before the tail is scheduled and the
// pool breathes between slices). Results are returned in request order
// and failures are recorded per request. The whole batch runs against one
// index generation: a concurrent
// Refresh does not split it. The error return is reserved for batch-level
// failure (a done context, a closed engine); it is ctx.Err() when the
// context expired mid-batch, with the already-completed results still
// returned.
func (e *Engine) SearchMany(ctx context.Context, reqs []SearchRequest) ([]BatchResult, BatchStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := e.core.Acquire()
	if err != nil {
		return nil, BatchStats{Queries: len(reqs)}, err
	}
	defer g.Release()
	return g.SearchMany(ctx, reqs)
}

// Add indexes a batch of live documents as one fresh immutable segment and
// refreshes the engine to the new generation — the incremental-update path
// that replaces "rebuild the whole index" for a growing collection. Every
// engine accepts it except one over a directory whose statistics are
// coordinated elsewhere (a dist partition): that one refuses with an error
// matching ErrReadOnly. Concurrent Adds serialize; concurrent Searches
// proceed against the prior generation until the refresh lands. The
// background merger (WithAutoMerge) is nudged afterwards.
func (e *Engine) Add(ctx context.Context, docs []Doc) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	batch, err := corpus.FromDocs(docs)
	if err != nil {
		return err
	}
	err = e.core.Commit(func(st *storage.RunningStats) error {
		_, err := storage.AppendSegment(e.core.Dir(), batch, st)
		return err
	})
	if err == nil && e.merger != nil {
		e.merger.notify()
	}
	return err
}

// Refresh re-reads the index directory's super-manifest and, if a newer
// generation exists (another process appended, a merge committed), swaps
// it in without dropping in-flight searches: running queries finish on the
// old snapshot, whose storage closes when the last one drains. The result
// cache needs no flush — the generation is part of every cache key.
func (e *Engine) Refresh(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.core.Refresh()
}

// mergeOnce runs one tiered merge if the policy calls for one: pick the
// cheapest adjacent run, build the merged segment off to the side (no
// locks held — appends and searches proceed; cancel aborts the build so a
// closing engine never waits out work it will discard), then commit and
// refresh under the core's commit lock and sweep the replaced
// directories. Returns whether a merge happened.
func (e *Engine) mergeOnce(maxSegments int, cancel func() bool) (bool, error) {
	dir := e.core.Dir()
	names, run, err := e.core.PlanMerge(maxSegments)
	if err != nil || names == nil {
		return false, err
	}
	into, err := storage.AllocSegmentDir(dir)
	if err != nil {
		return false, err
	}
	built := e.core.Building(into)
	defer built()
	bakedEpoch, err := storage.BuildMergedSegment(dir, names, into, cancel, run)
	if err != nil {
		storage.DiscardSegment(dir, into)
		if errors.Is(err, storage.ErrBuildCanceled) {
			return false, nil
		}
		return false, err
	}
	err = e.core.Commit(func(st *storage.RunningStats) error {
		_, err := storage.CommitMerge(dir, names, into, bakedEpoch, st)
		return err
	})
	if errors.Is(err, serving.ErrClosed) {
		// The engine closed while the build ran; nothing was committed.
		storage.DiscardSegment(dir, into)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	e.merges.Add(1)
	e.core.Sweep()
	return true, nil
}

// SearchBool runs a parsed §3.2 boolean query (see ParseBoolQuery) under
// the same concurrency and cancellation regime as Search. k zero means
// DefaultK; a negative k is rejected, exactly as in Search.
func (e *Engine) SearchBool(ctx context.Context, expr BoolExpr, k int) ([]Result, QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k, err := serving.ResolveK(k)
	if err != nil {
		return nil, QueryStats{}, err
	}
	g, err := e.core.Acquire()
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer g.Release()
	return g.Pool().SearchBool(ctx, expr, k)
}

// ExplainPlan renders the relational plan a query would run under a
// strategy, annotated after a binding pass — the demo display of §4. k
// zero means DefaultK; a negative k is rejected, exactly as in Search.
func (e *Engine) ExplainPlan(ctx context.Context, terms []string, k int, strat Strategy) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k, err := serving.ResolveK(k)
	if err != nil {
		return "", err
	}
	g, err := e.core.Acquire()
	if err != nil {
		return "", err
	}
	defer g.Release()
	resolved, err := g.Snapshot().Resolve(strat)
	if err != nil {
		return "", err
	}
	s, err := g.Pool().Acquire(ctx)
	if err != nil {
		return "", err
	}
	defer g.Pool().Release(s)
	return s.ExplainPlan(terms, k, resolved)
}

// Close releases the engine. The ops endpoint and the background merger
// stop first (an in-progress merge build is canceled, not waited out);
// then new calls fail with ErrEngineClosed, in-flight searches finish on
// their generation, and Close blocks until every generation has drained
// and released its storage (file handles). A final sweep then reclaims
// every unreferenced segment directory, and an engine Open built into a
// temporary directory removes that directory. Closing twice is a no-op.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.ops.Close()
		if e.merger != nil {
			e.merger.stop()
		}
		e.closeErr = e.core.Close()
		if e.root != "" {
			if err := os.RemoveAll(e.root); e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}
