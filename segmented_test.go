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
// for every strategy. Along the way SegmentStats must track the growth.
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
	eng, err := Open(first, WithStorageDir(dir))
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

	after, err := eng.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
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
// Close, so a closed engine's MetricsSnapshot must return the zero value
// rather than race the teardown of the segment manager and chunk caches.
func TestClosedEngineMetricsAreZero(t *testing.T) {
	coll := segColl(t)
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := Open(coll, WithStorageDir(dir))
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
// the tail of a giant batch. Every request is traced (the slow log holds
// exactly the two sub-batches' 32 traces) and each trace is mapped back to
// its request by its distinct terms: the barrier holds when every
// first-sub-batch trace ended no later than every second-sub-batch trace
// began.
func TestSearchManySubBatchOrdering(t *testing.T) {
	coll := segColl(t)
	const workers = 2
	eng, err := Open(coll, WithSearchers(workers), WithTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	chunk := workers * 8 // the serving core's subBatchPerWorker; SubBatches below pins it
	n := 2 * chunk
	subBatch := make(map[string]int, n) // query terms -> sub-batch
	var reqs []SearchRequest
	for _, q := range coll.EfficiencyQueries(4*n, 45) {
		key := strings.Join(q.Terms, " ")
		if _, dup := subBatch[key]; dup {
			continue
		}
		subBatch[key] = len(reqs) / chunk
		reqs = append(reqs, SearchRequest{Terms: q.Terms, K: 10})
		if len(reqs) == n {
			break
		}
	}
	if len(reqs) != n {
		t.Fatalf("only %d distinct queries, want %d", len(reqs), n)
	}

	out, bs, err := eng.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.SubBatches != 2 {
		t.Fatalf("batch of %d split into %d sub-batches, want 2", n, bs.SubBatches)
	}
	traces := eng.SlowQueries()
	if len(traces) != n {
		t.Fatalf("%d traces kept, want one per request (%d)", len(traces), n)
	}
	var firstEnd, secondStart []time.Time
	for _, qt := range traces {
		a, ok := qt.Root.Attr("terms")
		sb, known := subBatch[a.Str]
		if !ok || !known {
			t.Fatalf("trace %d has terms %q, which no request asked", qt.ID, a.Str)
		}
		if sb == 0 {
			firstEnd = append(firstEnd, qt.At.Add(qt.Duration))
		} else {
			secondStart = append(secondStart, qt.At)
		}
	}
	if len(firstEnd) != chunk || len(secondStart) != chunk {
		t.Fatalf("traces per sub-batch %d and %d, want %d each", len(firstEnd), len(secondStart), chunk)
	}
	for _, end := range firstEnd {
		for _, start := range secondStart {
			if end.After(start) {
				t.Fatalf("a second-sub-batch request began %v before a first-sub-batch one ended",
					end.Sub(start))
			}
		}
	}

	for i, res := range out {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
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
