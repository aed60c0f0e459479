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
	// request was slow" switch. The trace covers pool wait and
	// per-operator execution; it costs one tree build per traced request.
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
	// Trace is the query's span tree, present only when the request set
	// Request.Trace.
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
// cannot diverge; the searcher goes straight back to the pool.
func (g *Gen) Search(ctx context.Context, req Request) (Response, error) {
	var s *ir.Searcher
	r := g.search(ctx, &s, req)
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
		if r.Err != nil {
			bs.Failed++
		} else {
			if r.Response.Stats.SecondPass {
				bs.SecondPass++
			}
			bs.Candidates += r.Response.Stats.Candidates
		}
		accMu.Unlock()
		out[i] = r
	}

	start := time.Now()
	workers := min(g.pool.Size(), len(reqs))
	chunk := workers * subBatchPerWorker
	for lo := 0; lo < len(reqs); lo += chunk {
		g.runSubBatch(ctx, reqs, lo, min(lo+chunk, len(reqs)), workers, deliver)
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
			// fail validation never checks one out.
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
				deliver(i, g.search(ctx, &s, reqs[i]))
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

// search is the query pipeline: validate, pool wait, execute, metrics,
// trace finish. It runs the request on the caller's searcher, acquiring it
// on first need; *s stays nil when validation or the pool wait fails.
//
// Tracing: a trace already riding ctx belongs to the caller (a partition
// server's per-request root) — the pipeline's spans land under it and the
// caller finishes it. Otherwise the core's tracer decides whether this
// request records, and the pipeline finishes what it began.
func (g *Gen) search(ctx context.Context, s **ir.Searcher, req Request) BatchResult {
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
	k, strat, err := g.validate(req)
	if err != nil {
		return finish(BatchResult{Err: err})
	}
	if *s == nil {
		pw := t.Begin("pool.wait")
		waitStart := time.Now()
		sr, err := g.pool.Acquire(ctx)
		t.End(pw)
		if err != nil {
			return finish(BatchResult{Err: err})
		}
		c.poolWait.Observe(time.Since(waitStart))
		*s = sr
	}
	ex := t.Begin("execute")
	sh, stats, err := (*s).SearchPass(ctx, req.Terms, k, strat, req.Pass)
	t.End(ex)
	if err != nil {
		return finish(BatchResult{Err: err})
	}
	t.SetAttr(ex, "candidates", stats.Candidates)
	c.queries.Observe(time.Since(start))
	return finish(BatchResult{Response: Response{Hits: sh.Hits, Mask: sh.Mask, Stats: stats, Strategy: strat}})
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
	}
	root := c.tracer.Finish(t)
	if req.Trace && root != nil && r.Err == nil {
		r.Response.Trace = root
	}
	return r
}
