package serving

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/qos"
	"repro/internal/trace"
)

// DefaultK is the result-list depth used when a Request leaves K zero
// (the paper's evaluation depth is 20; interactive callers usually want
// the first page).
const DefaultK = 20

// ResolveK resolves a requested result depth: zero means DefaultK, and a
// negative k is an error.
func ResolveK(k int) (int, error) {
	if k == 0 {
		return DefaultK, nil
	}
	if k < 0 {
		return 0, fmt.Errorf("repro: search request k=%d", k)
	}
	return k, nil
}

// Request is one keyword query.
type Request struct {
	// Terms are the query keywords. At least one is required.
	Terms []string
	// K is the number of results wanted; 0 means DefaultK.
	K int
	// Strategy selects the Table 2 run. The zero value, StrategyDefault,
	// runs the strongest one, BM25TCMQ8 (the response reports what ran);
	// every other strategy runs as asked.
	Strategy ir.Strategy
	// Pass, when not ir.PassBoth, runs one pass of a ranked strategy: what a
	// partition server answers a broker, which gates the whole collection.
	Pass ir.Pass
	// Trace requests this query's span trace in the response regardless
	// of the slow-query threshold or sampling rate — the "explain why THIS
	// request was slow" switch. The trace covers admission, cache lookup,
	// pool wait, and per-operator execution; it costs one tree build per
	// traced request.
	Trace bool
}

// Response is the structured result of one search.
type Response struct {
	// Hits are the ranked documents, names resolved.
	Hits []ir.Result
	// Mask marks the query's terms the generation holds, for a request
	// that named one pass.
	Mask []bool
	// Stats carries per-query wall time, second-pass and candidate-count
	// accounting.
	Stats ir.QueryStats
	// Strategy is the strategy that actually executed (after resolving
	// StrategyDefault).
	Strategy ir.Strategy
	// Cached marks a response served from the result cache: Hits are a
	// private copy, Stats are those of the execution that populated the
	// entry, and no searcher was acquired.
	Cached bool
	// Trace is the query's span tree, present only when the request set
	// Request.Trace (cached responses carry a fresh trace of the lookup,
	// not the execution that populated the entry).
	Trace *trace.Span
}

// BatchResult is one request's outcome within a SearchMany batch: either a
// response or a per-request error (an invalid request or a failed
// execution does not sink the rest of the batch).
type BatchResult struct {
	Response Response
	Err      error
}

// BatchStats aggregates one SearchMany call — the throughput-side
// accounting that complements the per-request QueryStats.
type BatchStats struct {
	Queries    int   // requests in the batch
	Failed     int   // requests that returned a per-request error
	Shed       int   // of Failed: requests rejected by admission control
	CacheHits  int   // requests served from the result cache
	SecondPass int   // requests whose plan needed the disjunctive second pass
	Candidates int64 // summed scored candidates across the batch
	SubBatches int   // sub-batches the batch was split into (adaptive sizing)

	// Wall is the wall time of the whole batch; with W workers active it is
	// roughly the summed per-query time divided by W, which is the point.
	Wall time.Duration
}

// subBatchPerWorker bounds how many requests one worker runs per
// sub-batch: SearchMany splits batches larger than workers*subBatchPerWorker
// and completes each slice before scheduling the next. Two effects, both
// aimed at tail behaviour under heavy traffic: early requests finish (and
// are delivered) before the tail is even scheduled, and pooled searchers
// are released at every sub-batch boundary, so a giant batch cannot hold
// the whole pool hostage against concurrently arriving single searches.
const subBatchPerWorker = 8

// Search runs one keyword query on this generation through the pipeline
// (see search): a one-request batch, so the single and batched paths
// cannot diverge; the searcher (acquired only on a cache miss) goes
// straight back to the pool.
func (g *Gen) Search(ctx context.Context, req Request) (Response, error) {
	var s *ir.Searcher
	r := g.search(ctx, &s, req, false)
	if s != nil {
		g.pool.Release(s)
	}
	return r.Response, r.Err
}

// SearchMany executes a batch of requests on this generation, fanning them
// across the searcher pool in sub-batches. Results are returned in request
// order. Failures are recorded per request; the error return is ctx.Err()
// when the context expired mid-batch, with the already-completed results
// still returned.
func (g *Gen) SearchMany(ctx context.Context, reqs []Request) ([]BatchResult, BatchStats, error) {
	c := g.c
	bs := BatchStats{Queries: len(reqs)}
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out, bs, nil
	}

	// Per-result accounting happens at delivery time, under a mutex — the
	// work it guards is trivial next to a query.
	var accMu sync.Mutex
	deliver := func(i int, r BatchResult) {
		accMu.Lock()
		switch {
		case r.Err != nil:
			bs.Failed++
			if errors.Is(r.Err, qos.ErrOverloaded) {
				bs.Shed++
			}
		case r.Response.Cached:
			// A cache hit carries the stats of the execution that populated
			// the entry; this batch did none of that work, so only the hit
			// itself is accounted.
			bs.CacheHits++
		default:
			if r.Response.Stats.SecondPass {
				bs.SecondPass++
			}
			bs.Candidates += r.Response.Stats.Candidates
		}
		accMu.Unlock()
		out[i] = r
	}

	start := time.Now()
	// With admission control on, the whole batch is admitted up front:
	// request i's estimated queue wait grows with its position, so an
	// oversized batch against a deadline sheds its tail *now* — the
	// requests that were never going to execute in time cost an error
	// each instead of scheduling work destined to be thrown away. The
	// admitted prefix runs normally; every admitted request releases its
	// slot in search.
	admitN := len(reqs)
	if c.qosCtl != nil {
		var shedErr error
		admitN, shedErr = c.qosCtl.AdmitBatch(ctx, len(reqs))
		for i := admitN; i < len(reqs); i++ {
			c.shed.Inc()
			deliver(i, BatchResult{Err: shedErr})
		}
	}
	workers := min(g.pool.Size(), admitN)
	chunk := workers * subBatchPerWorker
	for lo := 0; lo < admitN; lo += chunk {
		g.runSubBatch(ctx, reqs, lo, min(lo+chunk, admitN), workers, deliver)
		bs.SubBatches++
	}
	bs.Wall = time.Since(start)
	return out, bs, ctx.Err()
}

// runSubBatch fans requests [lo, hi) across the workers and waits for all
// of them — the barrier between sub-batches is what guarantees the
// "first results before the tail is scheduled" ordering and returns every
// held searcher to the pool.
func (g *Gen) runSubBatch(ctx context.Context, reqs []Request, lo, hi, workers int, deliver func(int, BatchResult)) {
	workers = min(workers, hi-lo)
	next := int64(lo)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The searcher is acquired lazily: a worker whose requests all
			// hit the cache (or fail validation) never checks one out.
			var s *ir.Searcher
			defer func() {
				if s != nil {
					g.pool.Release(s)
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= hi {
					return
				}
				deliver(i, g.search(ctx, &s, reqs[i], true))
			}
		}()
	}
	wg.Wait()
}

// validate checks a request and resolves its defaults: the terms must be
// non-empty, K zero means DefaultK, negative K is rejected, and the
// strategy is resolved (ir.Index.Resolve).
func (g *Gen) validate(req Request) (int, ir.Strategy, error) {
	if len(req.Terms) == 0 {
		return 0, 0, errors.New("repro: search request has no terms")
	}
	k, err := ResolveK(req.K)
	if err != nil {
		return 0, 0, err
	}
	strat, err := g.snap.Resolve(req.Strategy)
	if err != nil {
		return 0, 0, err
	}
	return k, strat, nil
}

// search is the query pipeline: validate, result-cache lookup, admission,
// pool wait, execute, cache put, metrics, trace finish. It runs the
// request on the caller's searcher, acquiring it on first need; *s may
// remain nil when the cache answers. reserved says the caller already
// holds an admission slot for this request (SearchMany admits batches up
// front); the single-search path admits here, after the cache lookup, so
// cache hits are never shed — they consume no searcher. Either way every
// claimed slot is released on every exit path, with successful executions
// feeding their duration back into the service-time estimate the admission
// model runs on. The cache keeps whole-strategy answers only: a one-pass
// answer's mask is in the query's term order, which the cache key forgets.
//
// Tracing: a trace already riding ctx belongs to the caller (a partition
// server's per-request root) — the pipeline's spans land under it and the
// caller finishes it. Otherwise the core's tracer decides whether this
// request records, and the pipeline finishes what it began.
func (g *Gen) search(ctx context.Context, s **ir.Searcher, req Request, reserved bool) BatchResult {
	c := g.c
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	start := time.Now()
	t := trace.FromContext(ctx)
	own := t == nil
	if own {
		t = c.tracer.Begin("search", req.Trace)
		ctx = trace.NewContext(ctx, t)
	}
	finish := func(r BatchResult) BatchResult {
		if !own {
			return r
		}
		return c.finishTrace(t, req, r)
	}
	ctl := c.qosCtl
	k, strat, err := g.validate(req)
	if err != nil {
		if reserved && ctl != nil {
			ctl.Release()
		}
		return finish(BatchResult{Err: err})
	}
	cache := c.cache
	if req.Pass != ir.PassBoth {
		cache = nil
	}
	var key string
	if cache != nil {
		cl := t.Begin("cache.lookup")
		key = cacheKey(req.Terms, k, strat, g.snap.Gen())
		hit, ok := cache.get(key)
		t.End(cl)
		if ok {
			t.SetAttr(cl, "hit", 1)
			if reserved && ctl != nil {
				ctl.Release()
			}
			c.queries.Observe(time.Since(start))
			return finish(BatchResult{Response: hit})
		}
		t.SetAttr(cl, "hit", 0)
	}
	if ctl != nil && !reserved {
		ad := t.Begin("admission")
		err := ctl.Admit(ctx)
		t.End(ad)
		if err != nil {
			c.shed.Inc()
			return finish(BatchResult{Err: err})
		}
	}
	if *s == nil {
		pw := t.Begin("pool.wait")
		waitStart := time.Now()
		sr, err := g.pool.Acquire(ctx)
		t.End(pw)
		if err != nil {
			if ctl != nil {
				ctl.Release()
			}
			return finish(BatchResult{Err: err})
		}
		c.poolWait.Observe(time.Since(waitStart))
		*s = sr
	}
	ex := t.Begin("execute")
	execStart := time.Now()
	sh, stats, err := (*s).SearchPass(ctx, req.Terms, k, strat, req.Pass)
	t.End(ex)
	if ctl != nil {
		if err != nil {
			ctl.Release()
		} else {
			ctl.Done(time.Since(execStart))
		}
	}
	if err != nil {
		return finish(BatchResult{Err: err})
	}
	t.SetAttr(ex, "candidates", stats.Candidates)
	c.queries.Observe(time.Since(start))
	resp := Response{Hits: sh.Hits, Mask: sh.Mask, Stats: stats, Strategy: strat}
	if cache != nil {
		// The cached copy carries no trace: a later hit gets its own trace
		// describing the lookup, not this execution's.
		cache.put(key, resp)
	}
	return finish(BatchResult{Response: resp})
}

// finishTrace closes a trace the pipeline began, applies the tracer's keep
// policy (slow log, sampling), and attaches the finished tree to the
// response when the request opted in via Request.Trace. The terms string
// is rendered here, not at Begin — by now Detailed knows whether anyone
// will ever read it.
func (c *Core) finishTrace(t *trace.Trace, req Request, r BatchResult) BatchResult {
	if t == nil {
		return r
	}
	if t.Detailed() {
		t.SetAttrStr(trace.Root, "terms", strings.Join(req.Terms, " "))
	}
	if r.Err != nil {
		t.SetAttrStr(trace.Root, "error", r.Err.Error())
	} else if r.Response.Cached {
		t.SetAttr(trace.Root, "cached", 1)
	}
	root := c.tracer.Finish(t)
	if req.Trace && root != nil && r.Err == nil {
		r.Response.Trace = root
	}
	return r
}
