package repro

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Tests for the serving-QoS surface of the Engine: admission control on
// SearchMany/Search, the typed ErrOverloaded, cache hits bypassing
// admission, cost-aware result-cache eviction, and MetricsSnapshot.

// TestAdmissionQueueCapShedsBatchTail: a batch far wider than the
// searcher pool plus queue cap must shed its tail up front — typed
// errors, monotone (an admitted request is never behind a shed one).
func TestAdmissionQueueCapShedsBatchTail(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(1), WithAdmissionControl(2))
	q := coll.PrecisionQueries(1, 5)[0]
	reqs := make([]SearchRequest, 50)
	for i := range reqs {
		reqs[i] = SearchRequest{Terms: q.Terms, K: 10}
	}
	out, bs, err := eng.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Shed == 0 {
		t.Fatal("oversized batch shed nothing")
	}
	if bs.Shed != bs.Failed {
		t.Errorf("all failures should be sheds here: shed %d, failed %d", bs.Shed, bs.Failed)
	}
	// limit 1 + queue cap 2 admits exactly 3.
	if got := len(reqs) - bs.Shed; got != 3 {
		t.Errorf("admitted %d requests, want 3 (limit 1 + queue 2)", got)
	}
	seenShed := false
	for i, r := range out {
		if r.Err != nil {
			if !errors.Is(r.Err, ErrOverloaded) {
				t.Fatalf("request %d failed with untyped error: %v", i, r.Err)
			}
			seenShed = true
		} else if seenShed {
			t.Fatalf("request %d admitted after an earlier one was shed", i)
		}
	}
	if m := eng.MetricsSnapshot(); m.Shed != int64(bs.Shed) {
		t.Errorf("engine metrics count %d sheds, batch saw %d", m.Shed, bs.Shed)
	}
	if eng.MetricsSnapshot().Inflight != 0 {
		t.Error("inflight not drained after the batch")
	}
}

// TestAdmissionDeadlineSheds: an expired deadline plus any queue ahead
// means the request was never going to make it — shed, not executed.
func TestAdmissionDeadlineSheds(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(1), WithAdmissionControl(0))
	q := coll.PrecisionQueries(1, 5)[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	reqs := make([]SearchRequest, 10)
	for i := range reqs {
		reqs[i] = SearchRequest{Terms: q.Terms, K: 5}
	}
	_, bs, _ := eng.SearchMany(ctx, reqs)
	// Position 0 has no queue ahead and is admitted (then dies on the
	// expired context inside execution); every queued position sheds.
	if bs.Shed != len(reqs)-1 {
		t.Errorf("shed %d of %d, want all but the first", bs.Shed, len(reqs))
	}
}

// TestCacheHitBypassesAdmission: a result served from the cache consumes
// no searcher, so it must be served even when admission would reject the
// request — lookups happen before the admission gate.
func TestCacheHitBypassesAdmission(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(1), WithAdmissionControl(0), WithResultCache(16))
	req := SearchRequest{Terms: coll.PrecisionQueries(1, 5)[0].Terms, K: 10}
	if _, err := eng.Search(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	resp, err := eng.Search(ctx, req)
	if err != nil {
		t.Fatalf("cached search shed or failed under an expired deadline: %v", err)
	}
	if !resp.Cached {
		t.Error("response not marked cached")
	}
}

// TestAdmissionOptionValidation pins the option contract.
func TestAdmissionOptionValidation(t *testing.T) {
	coll := GenerateCollection(func() CollectionConfig {
		cfg := DefaultCollectionConfig()
		cfg.NumDocs = 200
		return cfg
	}())
	if _, err := Open(coll, WithAdmissionControl(-1)); err == nil {
		t.Error("WithAdmissionControl(-1) accepted")
	}
	eng, err := Open(coll, WithResultCache(4), WithAdmissionControl(8))
	if err != nil {
		t.Fatalf("valid QoS options rejected: %v", err)
	}
	eng.Close()
}

// TestMetricsSnapshot: the one-call snapshot carries query latency, pool
// wait, cache and storage counters after real traffic.
func TestMetricsSnapshot(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(2), WithResultCache(16))
	ctx := context.Background()
	req := SearchRequest{Terms: coll.PrecisionQueries(1, 5)[0].Terms, K: 10}
	for i := 0; i < 5; i++ {
		if _, err := eng.Search(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	m := eng.MetricsSnapshot()
	if m.Queries.Count != 5 {
		t.Errorf("query histogram count %d, want 5", m.Queries.Count)
	}
	if m.Queries.P50 <= 0 || m.Queries.Max < m.Queries.P50 {
		t.Errorf("implausible latency snapshot: %+v", m.Queries)
	}
	// 4 of the 5 were cache hits — no pool wait observed for them.
	if m.PoolWait.Count != 1 {
		t.Errorf("pool-wait count %d, want 1 (one real execution)", m.PoolWait.Count)
	}
	if m.ResultCache.Hits != 4 {
		t.Errorf("cache hits %d, want 4", m.ResultCache.Hits)
	}
	if m.Shed != 0 || m.Inflight != 0 {
		t.Errorf("idle engine reports shed=%d inflight=%d", m.Shed, m.Inflight)
	}
	if m.Storage.Hits+m.Storage.Misses == 0 {
		t.Error("storage counters empty after real executions")
	}
}
