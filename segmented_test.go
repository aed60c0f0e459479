package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/storage"
)

// segColl generates the shared collection for the segmented engine tests.
func segColl(t *testing.T) *Collection {
	t.Helper()
	cfg := DefaultCollectionConfig()
	cfg.NumDocs = 1800
	cfg.Vocab = 2600
	cfg.AvgDocLen = 64
	cfg.NumTopics = 18
	return GenerateCollection(cfg)
}

// requireReferenceRanking requires eng to rank every query under every
// strategy exactly as the ir.Build reference index over coll does: the
// same docids with bit-identical scores.
func requireReferenceRanking(t *testing.T, eng *Engine, coll *Collection, queries []corpus.Query, strats []Strategy) {
	t.Helper()
	ref, err := BuildIndex(coll, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(ref, 0)
	for _, q := range queries {
		for _, strat := range strats {
			want, _, err := s.Search(q.Terms, 10, strat)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Search(context.Background(), SearchRequest{Terms: q.Terms, K: 10, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Hits, want) {
				t.Errorf("%v %v: engine diverged from the ir.Build reference:\n got %v\nwant %v",
					strat, q.Terms, got.Hits, want)
			}
		}
	}
}

// TestEngineSegmentedLifecycle drives the live-update path end to end:
// Open a half collection as a segmented directory, Add the other half in
// batches through the engine, and require the final ranking to equal the
// ir.Build reference over the whole collection — exactly, scores included —
// for every strategy. Along the way the result cache must invalidate per
// generation and SegmentStats must track the growth.
func TestEngineSegmentedLifecycle(t *testing.T) {
	coll := segColl(t)
	ctx := context.Background()
	total := len(coll.DocLens)
	half := total / 2

	first, err := coll.Slice(0, half)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := Open(first, WithStorageDir(dir), WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := storage.ReadSegments(dir); err != nil {
		t.Fatal("Open(WithStorageDir) left no index directory behind")
	}
	if st := eng.SegmentStats(); st.Segments != 1 || st.Generation != 1 {
		t.Fatalf("fresh segmented engine stats %+v", st)
	}

	q := coll.PrecisionQueries(1, 31)[0]
	req := SearchRequest{Terms: q.Terms, K: 10}
	before, err := eng.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if hit, err := eng.Search(ctx, req); err != nil || !hit.Cached {
		t.Fatalf("repeat query within one generation missed the cache (cached=%v err=%v)", hit.Cached, err)
	}

	// Live appends: half the collection arrives in two batches.
	for _, cut := range [][2]int{{half, 3 * total / 4}, {3 * total / 4, total}} {
		docs, err := coll.Docs(cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Add(ctx, docs); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.SegmentStats(); st.Segments != 3 || st.Generation != 3 {
		t.Fatalf("after two adds: %+v", st)
	}

	// The generation is part of the cache key: the same request re-executes
	// against the grown collection instead of serving the stale entry.
	after, err := eng.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Error("post-append query served the previous generation's cache entry")
	}
	if reflect.DeepEqual(after.Hits, before.Hits) {
		t.Log("note: ranking unchanged by appends for this query (legal, just unlikely)")
	}

	// Exact equivalence with a whole-collection build.
	requireReferenceRanking(t, eng, coll,
		append(coll.PrecisionQueries(4, 33), coll.EfficiencyQueries(4, 34)...), AllStrategies)
}

// TestEngineCloseRacesInFlightSearch closes the engine while searches are
// running from many goroutines (under -race in CI): in-flight searches
// either complete normally or report ErrEngineClosed / a context error —
// never a torn read against released storage — and post-Close calls fail
// immediately.
func TestEngineCloseRacesInFlightSearch(t *testing.T) {
	coll := segColl(t)
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := Open(coll, WithStorageDir(dir), WithSearchers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := coll.EfficiencyQueries(16, 41)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				_, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10})
				if err != nil {
					if !errors.Is(err, ErrEngineClosed) {
						t.Errorf("in-flight search failed with %v", err)
					}
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let searches pile in
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	if _, err := eng.Search(ctx, SearchRequest{Terms: queries[0].Terms}); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("post-Close search returned %v, want ErrEngineClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestClosedEngineMetricsAreZero pins the shutdown contract of the
// metrics surface: an ops scrape can land at any moment relative to
// Close, so a closed engine's MetricsSnapshot and ResultCacheStats must
// return zero values rather than race the teardown of the segment
// manager and chunk caches.
func TestClosedEngineMetricsAreZero(t *testing.T) {
	coll := segColl(t)
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := Open(coll, WithStorageDir(dir), WithResultCache(8))
	if err != nil {
		t.Fatal(err)
	}
	q := coll.PrecisionQueries(1, 7)[0]
	if _, err := eng.Search(context.Background(), SearchRequest{Terms: q.Terms, K: 10}); err != nil {
		t.Fatal(err)
	}
	// Live engine: the search left footprints.
	if m := eng.MetricsSnapshot(); m.Queries.Count == 0 {
		t.Fatal("live engine reports no queries")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.MetricsSnapshot(); !reflect.DeepEqual(got, EngineMetrics{}) {
		t.Errorf("closed MetricsSnapshot = %+v, want zero value", got)
	}
	if got := eng.ResultCacheStats(); !reflect.DeepEqual(got, ResultCacheStats{}) {
		t.Errorf("closed ResultCacheStats = %+v, want zero value", got)
	}
}

// TestSegmentedMergeRacesSearchAndRefresh runs the background merger
// concurrently with live appends, explicit Refreshes and a searching
// goroutine pool (under -race in CI), then verifies the tiered policy
// bounded the segment count and the garbage collector reclaimed every
// directory no generation references.
func TestSegmentedMergeRacesSearchAndRefresh(t *testing.T) {
	coll := segColl(t)
	ctx := context.Background()
	total := len(coll.DocLens)
	const batches = 8
	firstDocs := total / batches

	first, err := coll.Slice(0, firstDocs)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := Open(first, WithStorageDir(dir), WithAutoMerge(3), WithSearchers(4))
	if err != nil {
		t.Fatal(err)
	}

	queries := coll.EfficiencyQueries(12, 43)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10}); err != nil {
					t.Errorf("search during merge churn: %v", err)
					return
				}
			}
		}(g)
	}
	// Refresh churn from a second goroutine (idempotent when current).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Refresh(ctx); err != nil && !errors.Is(err, ErrEngineClosed) {
				t.Errorf("refresh during merge churn: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for b := 1; b < batches; b++ {
		docs, err := coll.Docs(b*total/batches, (b+1)*total/batches)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Add(ctx, docs); err != nil {
			t.Fatal(err)
		}
	}
	// The merger settles: segment count back under the bound.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := eng.SegmentStats()
		if st.Segments <= 3 && st.Merges > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merger never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The full collection is still served, exactly.
	requireReferenceRanking(t, eng, coll, coll.PrecisionQueries(3, 44), []Strategy{BM25TCMQ8})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// After Close every reader generation has drained: only the current
	// generation's segment directories may remain on disk.
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := make(map[string]bool, len(sm.Segments))
	for _, e := range sm.Segments {
		keep[e.Name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && !keep[e.Name()] {
			t.Errorf("generation garbage survived Close: %s", e.Name())
		}
	}
}

// TestSearchManySubBatchOrdering pins the adaptive batch sizing contract:
// a batch larger than workers*subBatchPerWorker splits into sub-batches,
// and every request of an earlier sub-batch completes before any request
// of a later one is scheduled — first-result latency no longer waits on
// the tail of a giant batch. The result cache makes the barrier visible:
// each later sub-batch repeats the one before it in reverse order, so the
// first request the second sub-batch schedules is the last one the first
// scheduled, and every repeat is a cache hit only if the first sub-batch
// had finished.
func TestSearchManySubBatchOrdering(t *testing.T) {
	coll := segColl(t)
	const workers = 2
	eng, err := Open(coll, WithSearchers(workers), WithResultCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	chunk := workers * 8 // the serving core's subBatchPerWorker; SubBatches below pins it
	n := 3 * chunk
	queries := coll.EfficiencyQueries(chunk, 45)
	reqs := make([]SearchRequest, n)
	for i, q := range queries {
		reqs[i] = SearchRequest{Terms: q.Terms, K: 10}
	}
	for i := chunk; i < n; i++ {
		reqs[i] = reqs[i/chunk*chunk-1-i%chunk]
	}

	out, bs, err := eng.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.SubBatches != 3 {
		t.Fatalf("batch of %d split into %d sub-batches, want 3", n, bs.SubBatches)
	}
	for i, res := range out {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if i >= chunk && !res.Response.Cached {
			t.Errorf("request %d (sub-batch %d) missed the cache: it was scheduled before the sub-batch it repeats finished",
				i, i/chunk)
		}
		want, err := eng.Search(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Response.Hits, want.Hits) {
			t.Errorf("request %d: SearchMany hits differ from Search's", i)
		}
	}
}
