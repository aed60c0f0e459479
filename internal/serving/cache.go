package serving

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ir"
)

// ResultCacheStats reports the result cache counters: lookups served
// from the cache (without acquiring a searcher), lookups that went to the
// execution path, and occupancy.
type ResultCacheStats struct {
	Hits, Misses int64
	Entries, Cap int
}

// HitRate returns the fraction of lookups served from the cache.
func (s ResultCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// resultCache is the LRU of complete search responses, keyed
// on normalized terms + k + resolved strategy. Indexes are immutable, so
// entries never need invalidation; a hit is served without ever touching
// the searcher pool. It is safe for concurrent use.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent

	hits, misses int64
}

type cacheEntry struct {
	key  string
	resp Response
}

func newResultCache(entries int) *resultCache {
	return &resultCache{
		cap:     entries,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// cacheKey normalizes a request into its cache identity. Terms are sorted —
// the ranked plans are order-independent (scores are symmetric sums and
// ties break on docid) — so "a b" and "b a" share an entry; duplicates are
// kept, since a repeated term is scored twice. k and the *resolved*
// strategy complete the key, so StrategyDefault and its resolution share
// entries too. The index generation is folded in last: a segmented engine
// that refreshes to a newer generation (live appends, background merges)
// thereby invalidates every prior entry without any flush — stale keys are
// simply never asked for again and age out of the LRU.
func cacheKey(terms []string, k int, strat ir.Strategy, gen uint64) string {
	sorted := append(make([]string, 0, len(terms)), terms...)
	sort.Strings(sorted)
	var b strings.Builder
	for _, t := range sorted {
		b.WriteString(t)
		b.WriteByte(0)
	}
	b.WriteString(strconv.Itoa(k))
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(int(strat)))
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(gen, 10))
	return b.String()
}

// get returns a private copy of the cached response for key, updating
// recency. The copy's Cached flag is set.
func (c *resultCache) get(key string) (Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return Response{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	resp := el.Value.(*cacheEntry).resp
	// Callers own their result slice; the cached one stays immutable.
	resp.Hits = append([]ir.Result(nil), resp.Hits...)
	resp.Cached = true
	return resp, true
}

// put stores a response under key, evicting least-recently-used entries
// beyond capacity. The stored copy detaches from the caller's slice.
func (c *resultCache) put(key string, resp Response) {
	resp.Hits = append([]ir.Result(nil), resp.Hits...)
	resp.Cached = false
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, resp: resp})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.lru.Remove(back)
	}
}

// stats returns a snapshot of the counters and occupancy.
func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Cap: c.cap}
}
