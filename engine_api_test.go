package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colbm"
	"repro/internal/corpus"
)

// Tests for the context-aware Engine API: concurrent Search under -race,
// cancellation mid-query, option validation, strategy resolution, and the
// fluent plan builder's build-time validation.

// fixtureCollection is the 3000-document collection the facade tests
// search.
func fixtureCollection() *Collection {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs = 3000
	cfg.Vocab = 4000
	cfg.AvgDocLen = 90
	cfg.NumTopics = 25
	return GenerateCollection(cfg)
}

func engineFixture(t *testing.T, opts ...Option) (*Collection, *Engine) {
	t.Helper()
	coll := fixtureCollection()
	eng, err := Open(coll, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return coll, eng
}

func TestEngineSearchQuickstart(t *testing.T) {
	// The package-comment quickstart flow, end to end.
	coll, eng := engineFixture(t, WithBufferPoolBytes(256<<20), WithSearchers(4), WithVectorSize(1024))
	q := coll.PrecisionQueries(1, 5)[0]
	resp, err := eng.Search(context.Background(), SearchRequest{Terms: q.Terms, K: 20, Strategy: BM25TCMQ8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != BM25TCMQ8 {
		t.Errorf("strategy run: %v", resp.Strategy)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range resp.Hits {
		if h.Name == "" {
			t.Error("unresolved document name")
		}
	}
	if resp.Stats.Wall <= 0 {
		t.Error("no wall time recorded")
	}
	if p := PrecisionAtK(resp.Hits, coll.Qrels(q), 20); p < 0.2 {
		t.Errorf("engine p@20 = %v", p)
	}
	// The default strategy resolves to the strongest supported run.
	resp, err = eng.Search(context.Background(), SearchRequest{Terms: q.Terms})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != BM25TCMQ8 {
		t.Errorf("default strategy resolved to %v", resp.Strategy)
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > DefaultK {
		t.Errorf("default K: %d hits", len(resp.Hits))
	}
	// The plan display works through the engine.
	plan, err := eng.ExplainPlan(context.Background(), q.Terms, 10, BM25TC)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, ".TD[") {
		t.Errorf("explain: %s", plan)
	}
}

func TestEngineSearchConcurrent(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(4))
	queries := coll.EfficiencyQueries(64, 9)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += goroutines {
				strat := AllStrategies[i%len(AllStrategies)]
				resp, err := eng.Search(context.Background(),
					SearchRequest{Terms: queries[i].Terms, K: 10, Strategy: strat})
				if err != nil {
					errs[g] = err
					return
				}
				if resp.Strategy != strat {
					errs[g] = errors.New("wrong strategy echoed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineSearchCancellation(t *testing.T) {
	coll, eng := engineFixture(t)
	q := coll.EfficiencyQueries(1, 3)[0]

	// Already-canceled context: aborted before (or between) vectors.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search: %v", err)
	}

	// Cancel mid-stream: a loop of queries on another goroutine must abort
	// with context.Canceled once cancel fires (either mid-plan at a leaf
	// poll or on the next request's admission).
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, Strategy: BM25}); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-query cancel returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not abort the query loop")
	}

	// The engine is still healthy afterwards.
	if _, err := eng.Search(context.Background(), SearchRequest{Terms: q.Terms}); err != nil {
		t.Fatalf("engine unhealthy after cancel: %v", err)
	}
}

func TestEngineDeadline(t *testing.T) {
	coll, eng := engineFixture(t)
	q := coll.EfficiencyQueries(1, 4)[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v", err)
	}
}

func TestOpenOptionValidation(t *testing.T) {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs = 200
	coll := GenerateCollection(cfg)
	_, err := Open(coll, WithSearchers(0), WithVectorSize(-1), WithBufferPoolBytes(-5),
		WithTraceSampling(math.NaN()))
	if err == nil {
		t.Fatal("invalid options accepted")
	}
	// All four problems are reported together.
	for _, want := range []string{"searcher pool", "vector size", "buffer pool", "trace sampling"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
	if _, err := Open(nil); err == nil {
		t.Error("nil collection accepted")
	}
}

// TestEngineStrategyResolution: there is one index layout, so the default
// strategy is the strongest one, every strategy runs as asked and reports
// itself, and only a value outside the ladder is refused.
func TestEngineStrategyResolution(t *testing.T) {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs = 500
	coll := GenerateCollection(cfg)
	eng, err := Open(coll)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	q := coll.EfficiencyQueries(1, 8)[0]
	if resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms}); err != nil || resp.Strategy != BM25TCMQ8 {
		t.Errorf("default strategy: %v, %v; want BM25TCMQ8", resp.Strategy, err)
	}
	for _, strat := range AllStrategies {
		if resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, Strategy: strat}); err != nil || resp.Strategy != strat {
			t.Errorf("%v ran as %v, %v", strat, resp.Strategy, err)
		}
	}
	if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, Strategy: BM25TCMQ8 + 1}); err == nil {
		t.Error("a strategy outside the ladder ran")
	}
}

// TestEngineNegativeK guards validation consistency across the public
// entry points: Search, SearchBool and ExplainPlan must all reject a
// negative k (SearchBool and ExplainPlan used to coerce it to DefaultK)
// and all treat zero as DefaultK.
func TestEngineNegativeK(t *testing.T) {
	coll, eng := engineFixture(t)
	ctx := context.Background()
	q := coll.EfficiencyQueries(1, 12)[0]
	if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: -1}); err == nil {
		t.Error("Search accepted k=-1")
	}
	var term string
	for tm := range eng.Index().Terms {
		term = tm
		break
	}
	expr, err := ParseBoolQuery(term)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.SearchBool(ctx, expr, -1); err == nil {
		t.Error("SearchBool accepted k=-1")
	}
	if _, err := eng.ExplainPlan(ctx, q.Terms, -1, BM25TC); err == nil {
		t.Error("ExplainPlan accepted k=-1")
	}
	if resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms}); err != nil || len(resp.Hits) > DefaultK {
		t.Errorf("Search k=0: %d hits, err %v", len(resp.Hits), err)
	}
	if res, _, err := eng.SearchBool(ctx, expr, 0); err != nil || len(res) > DefaultK {
		t.Errorf("SearchBool k=0: %d hits, err %v", len(res), err)
	}
	if plan, err := eng.ExplainPlan(ctx, q.Terms, 0, BM25TC); err != nil || !strings.Contains(plan, fmt.Sprintf("TopN(%d;", DefaultK)) {
		t.Errorf("ExplainPlan k=0: err %v, plan\n%s", err, plan)
	}
}

// TestEngineResultCache exercises the engine-level result cache: the
// second identical query is a hit, term order does not matter, hits are
// private copies, and — the point — a cached answer never touches the
// searcher pool, proven by serving it while the engine's only searcher is
// held hostage under an already-canceled context.
func TestEngineResultCache(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(1), WithResultCache(8))
	ctx := context.Background()
	var q corpus.Query
	for _, cand := range coll.EfficiencyQueries(20, 21) {
		if len(cand.Terms) >= 2 {
			q = cand
			break
		}
	}
	if len(q.Terms) < 2 {
		t.Fatal("no multi-term query in the fixture")
	}
	req := SearchRequest{Terms: q.Terms, K: 10}

	first, err := eng.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first lookup reported cached")
	}
	second, err := eng.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat lookup missed the cache")
	}
	if len(second.Hits) != len(first.Hits) || second.Strategy != first.Strategy {
		t.Errorf("cached response diverged: %d hits %v, want %d hits %v",
			len(second.Hits), second.Strategy, len(first.Hits), first.Strategy)
	}
	// Term order is normalized out of the key.
	rev := append([]string(nil), q.Terms...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if resp, err := eng.Search(ctx, SearchRequest{Terms: rev, K: 10}); err != nil || !resp.Cached {
		t.Errorf("reordered terms missed the cache (cached=%v, err=%v)", resp.Cached, err)
	}

	// Hold the engine's ONLY searcher and cancel the context: a cold query
	// cannot run, a cached one must still be answered.
	g, err := eng.core.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	pool := g.Pool()
	s, err := pool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	resp, err := eng.Search(cctx, req)
	if err != nil || !resp.Cached {
		t.Fatalf("cache hit needed a searcher: cached=%v err=%v", resp.Cached, err)
	}
	other := coll.PrecisionQueries(1, 22)[0]
	if _, err := eng.Search(cctx, SearchRequest{Terms: other.Terms, K: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold query under canceled ctx and hostage searcher: %v", err)
	}
	pool.Release(s)

	// Returned hits are private copies: mutating one must not poison the
	// cache entry.
	second.Hits[0].Name = "mutated"
	if resp, err := eng.Search(ctx, req); err != nil || resp.Hits[0].Name == "mutated" {
		t.Errorf("cache entry aliased a caller's slice (err %v)", err)
	}

	st := eng.ResultCacheStats()
	if st.Hits < 3 || st.Misses < 1 || st.Entries < 1 || st.Cap != 8 {
		t.Errorf("cache stats: %+v", st)
	}
}

// TestEngineSearchMany checks the batched path end to end: request order
// is preserved, results match sequential Search, an invalid request fails
// alone without sinking the batch, and batch stats add up.
func TestEngineSearchMany(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(4))
	ctx := context.Background()
	queries := coll.EfficiencyQueries(32, 14)
	reqs := make([]SearchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = SearchRequest{Terms: q.Terms, K: 10, Strategy: BM25TCMQ8}
	}
	const bad = 5
	reqs[bad] = SearchRequest{K: 10} // no terms

	out, bs, err := eng.SearchMany(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(out), len(reqs))
	}
	if bs.Queries != len(reqs) || bs.Failed != 1 || bs.CacheHits != 0 {
		t.Errorf("batch stats: %+v", bs)
	}
	if bs.Candidates <= 0 || bs.Wall <= 0 {
		t.Errorf("batch accounting empty: %+v", bs)
	}
	for i := range reqs {
		if i == bad {
			if out[i].Err == nil {
				t.Error("empty request did not fail")
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatalf("request %d: %v", i, out[i].Err)
		}
		want, err := eng.Search(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i].Response.Hits, want.Hits) || out[i].Response.Strategy != want.Strategy {
			t.Errorf("request %d: batched and sequential results disagree", i)
		}
	}

	// A dead context fails the batch as a whole.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := eng.SearchMany(cctx, reqs); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batch: %v", err)
	}
}

func TestEngineSearchBool(t *testing.T) {
	_, eng := engineFixture(t)
	var terms []string
	for term := range eng.Index().Terms {
		terms = append(terms, term)
		if len(terms) == 2 {
			break
		}
	}
	expr, err := ParseBoolQuery(terms[0] + " OR " + terms[1])
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.SearchBool(context.Background(), expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("boolean OR over known terms returned nothing")
	}
}

func builderTable(t *testing.T) *Table {
	t.Helper()
	disk := NewSimDisk(DefaultDiskParams())
	pool := NewBufferManager(0)
	b := NewTableBuilder("t", disk, pool, []ColumnSpec{
		{Name: "k", Type: TypeInt64, Enc: EncPFOR},
		{Name: "flag", Type: TypeStr},
	})
	for i := 0; i < 5000; i++ {
		b.AppendInt64("k", int64(i%97))
		if i%2 == 0 {
			b.AppendStr("flag", "A")
		} else {
			b.AppendStr("flag", "B")
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestPlanBuilderHappyPath(t *testing.T) {
	tab := builderTable(t)
	rows, err := From(tab, "k", "flag").
		Where(&CmpIntColVal{Col: "k", Op: CmpLT, Val: 50}).
		Aggregate([]string{"flag"},
			AggSpec{Op: AggCount, Name: "n"},
			AggSpec{Op: AggSum, Col: "k", Name: "sum"}).
		OrderBy(OrderSpec{Col: "n", Desc: true}).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d groups", len(rows))
	}
}

func TestPlanBuilderJoin(t *testing.T) {
	disk := NewSimDisk(DefaultDiskParams())
	pool := NewBufferManager(0)
	mk := func(name string, step int) *Table {
		b := NewTableBuilder(name, disk, pool, []ColumnSpec{
			{Name: "k", Type: TypeInt64, Enc: colbm.EncPFORDelta},
		})
		for i := 0; i < 600; i++ {
			b.AppendInt64("k", int64(i*step))
		}
		tab, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	left, right := mk("l", 2), mk("r", 3)
	rows, err := From(left).
		Join(From(right), JoinSpec{LeftKey: "k", RightKey: "k", LeftPrefix: "l.", RightPrefix: "r."}).
		TopN(5, OrderSpec{Col: "l.k", Desc: true}).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("join topn: %d rows", len(rows))
	}
	// Ambiguous output names are a build-time error.
	if _, err := From(left).Join(From(right), JoinSpec{LeftKey: "k", RightKey: "k"}).Build(); err == nil {
		t.Error("ambiguous join columns accepted")
	}
}

func TestPlanBuilderAccumulatesErrors(t *testing.T) {
	tab := builderTable(t)
	_, err := From(tab, "nope").
		Where(&CmpIntColVal{Col: "also-nope", Op: CmpLT, Val: 1}).
		Build()
	if err == nil {
		t.Fatal("unknown columns accepted")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error does not name the column: %v", err)
	}
	// Validation is at Build time: bad order column, bad aggregate, bad
	// projection all surface without Open ever running.
	_, err = From(tab).
		Project(Projection{Name: "x", Expr: NewColRef("missing")}).
		Build()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("projection validation: %v", err)
	}
	_, err = From(tab).TopN(0, OrderSpec{Col: "k"}).Build()
	if err == nil {
		t.Error("TopN(0) accepted")
	}
	_, err = From(tab).Aggregate([]string{"k"}, AggSpec{Op: AggSum, Col: "flag", Name: "s"}).Build()
	if err == nil {
		t.Error("sum over Str accepted")
	}
}

func TestPlanBuilderCancellation(t *testing.T) {
	tab := builderTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := From(tab).Run(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled plan run: %v", err)
	}
}
