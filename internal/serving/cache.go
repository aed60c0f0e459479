package serving

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ir"
)

// CachePolicy selects how the result cache evicts.
type CachePolicy int

const (
	// CachePolicyLRU evicts the least-recently-used entry (the default).
	CachePolicyLRU CachePolicy = iota
	// CachePolicyCost evicts the *cheapest-to-recompute* entry among the
	// least-recently-used tail: each entry is weighted by the wall time
	// of the execution that populated it, so one hit on an expensive
	// entry saves more than many hits on cheap ones.
	CachePolicyCost
)

// costSample bounds the cost-aware eviction scan: the victim is the
// cheapest of the costSample least-recently-used entries, an O(1)
// approximation of cost-weighted LRU (scanning the whole cache per
// eviction would turn every put into O(n)).
const costSample = 8

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
	policy  CachePolicy
	entries map[string]*list.Element
	lru     *list.List // front = most recent

	hits, misses int64
}

type cacheEntry struct {
	key  string
	resp Response
	// cost is the wall time of the execution that populated the entry —
	// what a future hit saves, and what CachePolicyCost evicts by.
	cost time.Duration
}

func newResultCache(entries int, policy CachePolicy) *resultCache {
	return &resultCache{
		cap:     entries,
		policy:  policy,
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
		ent := el.Value.(*cacheEntry)
		ent.resp, ent.cost = resp, resp.Stats.Wall
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, resp: resp, cost: resp.Stats.Wall})
	for c.lru.Len() > c.cap {
		c.evictOneLocked()
	}
}

// evictOneLocked removes one entry. Under CachePolicyLRU that is the
// back of the recency list; under CachePolicyCost it is the cheapest of
// the costSample least-recently-used entries (the just-inserted front
// entry is never a candidate — evicting what was stored a microsecond
// ago would make the cache refuse new expensive entries forever).
func (c *resultCache) evictOneLocked() {
	back := c.lru.Back()
	if c.policy == CachePolicyCost {
		victim := back
		for el, i := back, 0; el != nil && el != c.lru.Front() && i < costSample; el, i = el.Prev(), i+1 {
			if el.Value.(*cacheEntry).cost < victim.Value.(*cacheEntry).cost {
				victim = el
			}
		}
		if victim != c.lru.Front() {
			delete(c.entries, victim.Value.(*cacheEntry).key)
			c.lru.Remove(victim)
			return
		}
	}
	delete(c.entries, back.Value.(*cacheEntry).key)
	c.lru.Remove(back)
}

// stats returns a snapshot of the counters and occupancy.
func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Cap: c.cap}
}
