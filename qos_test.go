package repro

import (
	"context"
	"testing"
)

// Tests for the serving metrics surface of the Engine.

// TestMetricsSnapshot: the one-call snapshot carries query latency, pool
// wait and storage counters after real traffic.
func TestMetricsSnapshot(t *testing.T) {
	coll, eng := engineFixture(t, WithSearchers(2))
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
	// Every repeat executes: one pool wait per search.
	if m.PoolWait.Count != 5 {
		t.Errorf("pool-wait count %d, want 5 (one per execution)", m.PoolWait.Count)
	}
	if m.Inflight != 0 {
		t.Errorf("idle engine reports inflight=%d", m.Inflight)
	}
	if m.Storage.Hits+m.Storage.Misses == 0 {
		t.Error("storage counters empty after real executions")
	}
}
