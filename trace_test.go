package repro

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Tests for the engine-side tracing surface: the per-request opt-in
// span tree, the tail-based slow-query log, and the WithOpsServer HTTP
// endpoint (Prometheus exposition, health, pprof, rendered slow log).

func TestEngineSearchTrace(t *testing.T) {
	coll, eng := engineFixture(t, WithResultCache(16), WithSearchers(2))
	qs := coll.PrecisionQueries(2, 11)
	ctx := context.Background()

	// Without the opt-in, no trace is recorded or returned.
	resp, err := eng.Search(ctx, SearchRequest{Terms: qs[0].Terms, K: 10, Strategy: BM25TCMQ8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatal("untraced request returned a trace")
	}

	// A forced trace (on a query the warm-up above did not cache) covers
	// the whole request: execute, the scan pass, and the post-hoc
	// per-operator breakdown.
	resp, err = eng.Search(ctx, SearchRequest{Terms: qs[1].Terms, K: 10, Strategy: BM25TCMQ8, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	root := resp.Trace
	if root == nil {
		t.Fatal("SearchRequest.Trace set but SearchResponse.Trace is nil")
	}
	if root.Name != "search" {
		t.Fatalf("root span %q, want \"search\"", root.Name)
	}
	ex := root.Find("execute")
	if ex == nil {
		t.Fatalf("no execute span:\n%s", root.Render())
	}
	if cl := root.Find("cache.lookup"); cl == nil {
		t.Fatalf("no cache.lookup span:\n%s", root.Render())
	} else if hit, ok := cl.Attr("hit"); !ok || hit.Val != 0 {
		t.Fatalf("first lookup should miss (hit=%+v ok=%v)", hit, ok)
	}
	ops := 0
	ex.Walk(func(s *TraceSpan) {
		if _, ok := s.Attr("rows_out"); ok {
			ops++
		}
	})
	if ops == 0 {
		t.Fatalf("no operator spans under execute:\n%s", ex.Render())
	}
	// Offsets are root-relative and inside the request window.
	root.Walk(func(s *TraceSpan) {
		if s.Start < 0 || s.Start > root.Duration {
			t.Errorf("span %q start %v outside root duration %v", s.Name, s.Start, root.Duration)
		}
	})

	// A repeat of the same request hits the result cache; its trace is a
	// fresh tree for THIS request (the cached copy carries none) showing
	// the hit.
	resp, err = eng.Search(ctx, SearchRequest{Terms: qs[1].Terms, K: 10, Strategy: BM25TCMQ8, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("repeat request missed the result cache")
	}
	if resp.Trace == nil {
		t.Fatal("cache hit dropped the trace")
	}
	if hit, ok := resp.Trace.Find("cache.lookup").Attr("hit"); !ok || hit.Val != 1 {
		t.Fatalf("cache-hit trace: hit=%+v ok=%v\n%s", hit, ok, resp.Trace.Render())
	}
	if _, ok := resp.Trace.Attr("cached"); !ok {
		t.Fatalf("cache-hit trace lacks cached attr:\n%s", resp.Trace.Render())
	}
}

func TestEngineSlowQueryLog(t *testing.T) {
	// A 1ns threshold keeps every query: the log fills without any
	// request opting in.
	coll, eng := engineFixture(t, WithSlowQueryThreshold(time.Nanosecond))
	q := coll.PrecisionQueries(1, 13)[0]
	if _, err := eng.Search(context.Background(), SearchRequest{Terms: q.Terms, K: 10}); err != nil {
		t.Fatal(err)
	}
	slow := eng.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("threshold 1ns but SlowQueries is empty")
	}
	if slow[0].Root.Name != "search" || slow[0].Duration <= 0 {
		t.Fatalf("bad logged trace: %+v", slow[0])
	}
	if slow[0].Root.Find("execute") == nil {
		t.Fatalf("logged trace lost its spans:\n%s", slow[0].Root.Render())
	}
}

func TestEngineOpsServer(t *testing.T) {
	coll, eng := engineFixture(t,
		WithOpsServer("127.0.0.1:0"),
		WithSlowQueryThreshold(time.Nanosecond),
		WithResultCache(8),
	)
	addr := eng.OpsAddr()
	if addr == "" {
		t.Fatal("WithOpsServer set but OpsAddr is empty")
	}
	q := coll.PrecisionQueries(1, 17)[0]
	if _, err := eng.Search(context.Background(), SearchRequest{Terms: q.Terms, K: 10}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE repro_engine_query_seconds summary",
		"repro_engine_query_seconds_count 1",
		"repro_engine_docs",
		"repro_engine_result_cache_misses_total 1",
		"# TYPE repro_storage_manifest_decodes_total counter",
		"# TYPE repro_storage_chunk_checksum_failures_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	health := get("/health")
	for _, want := range []string{`"closed": false`, `"docs"`, `"searchers"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/health missing %q:\n%s", want, health)
		}
	}
	if slow := get("/debug/slow"); !strings.Contains(slow, "search") {
		t.Errorf("/debug/slow has no rendered trace:\n%s", slow)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "profile") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%s", idx)
	}

	// Close tears the endpoint down with the engine.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/health"); err == nil {
		t.Error("ops endpoint still serving after Close")
	}
}
