package serving

import (
	"testing"
	"time"

	"repro/internal/ir"
)

// TestCostEvictionKeepsExpensiveEntries drives the resultCache directly:
// under CachePolicyCost the victim is the cheapest of the LRU tail, so an
// expensive old entry outlives cheap ones that plain LRU would keep.
func TestCostEvictionKeepsExpensiveEntries(t *testing.T) {
	put := func(c *resultCache, key string, cost time.Duration) {
		c.put(key, Response{Stats: ir.QueryStats{Wall: cost}})
	}
	has := func(c *resultCache, key string) bool {
		_, ok := c.get(key)
		return ok
	}

	lru := newResultCache(2, CachePolicyLRU)
	put(lru, "expensive", 100*time.Millisecond)
	put(lru, "cheap", time.Microsecond)
	put(lru, "new", time.Millisecond)
	if has(lru, "expensive") || !has(lru, "cheap") {
		t.Error("LRU policy must evict the oldest regardless of cost")
	}

	cost := newResultCache(2, CachePolicyCost)
	put(cost, "expensive", 100*time.Millisecond)
	put(cost, "cheap", time.Microsecond)
	put(cost, "new", time.Millisecond)
	if !has(cost, "expensive") {
		t.Error("cost policy evicted the most expensive entry")
	}
	if has(cost, "cheap") {
		t.Error("cost policy kept the cheapest entry")
	}
	if !has(cost, "new") {
		t.Error("cost policy evicted the just-inserted entry")
	}
}
