package serving

import (
	"testing"
	"time"

	"repro/internal/ir"
)

// TestResultCacheEvictsLeastRecentlyUsed drives the resultCache directly:
// a full cache evicts the least-recently-used entry, whatever its
// execution cost, and a hit renews an entry's recency.
func TestResultCacheEvictsLeastRecentlyUsed(t *testing.T) {
	put := func(c *resultCache, key string, cost time.Duration) {
		c.put(key, Response{Stats: ir.QueryStats{Wall: cost}})
	}
	has := func(c *resultCache, key string) bool {
		_, ok := c.get(key)
		return ok
	}

	c := newResultCache(2)
	put(c, "expensive", 100*time.Millisecond)
	put(c, "cheap", time.Microsecond)
	put(c, "new", time.Millisecond)
	if has(c, "expensive") || !has(c, "cheap") || !has(c, "new") {
		t.Error("a full cache must evict the oldest entry regardless of cost")
	}
	// "cheap" was read before "new", so it is now the older of the two.
	put(c, "newest", time.Millisecond)
	if has(c, "cheap") || !has(c, "new") || !has(c, "newest") {
		t.Error("a hit did not renew the entry's recency")
	}
}
