package colbm

import (
	"container/list"
	"sync"

	"repro/internal/compress"
)

// CachedChunk is one column chunk held in RAM *in compressed form*, the
// central ColumnBM design decision: keeping blocks compressed multiplies
// effective buffer capacity, and the PFOR-family decoders are fast enough
// to decompress at vector granularity on every access (data is decompressed
// "directly into the CPU cache", never written back to RAM uncompressed).
//
// A chunk is either a parsed compress.Block (for encoded chunks — parsing
// is a cheap header decode done once per load) or raw bytes (for
// uncompressed chunks such as materialized float scores). A string chunk
// also carries the byte offsets of its values, computed once at load.
// Cached chunks are immutable and may be shared by any number of concurrent
// readers.
type CachedChunk struct {
	Block *compress.Block // non-nil for encoded chunks
	Raw   []byte          // non-nil for uncompressed chunks
	// StrOff, for string chunks, holds n+1 offsets into Raw: value i is
	// Raw[StrOff[i]:StrOff[i+1]].
	StrOff []uint32
	Size   int64 // footprint charged against the budget: the stored bytes plus StrOff
}

// CacheStats reports hit/miss/eviction counters and occupancy of a
// ChunkCache.
//
// Accounting identity: every successful GetChunk is counted exactly once
// as a hit or a miss, so Hits+Misses is the number of completed lookups
// (plus, for storage.Manager, the keys a batched prefetch claimed, which
// count as misses — each costs a store fetch). Shared is not a third
// outcome: a lookup that waited on another caller's load and got its
// chunk paid no store fetch of its own, so it is a hit that is also
// counted in Shared. Shared <= Hits as long as no load fails (a failed
// shared wait keeps its Shared count and retries as a fresh lookup).
type CacheStats struct {
	Hits, Misses int64
	// Shared counts lookups coalesced onto another caller's in-flight load
	// (singleflight), a subset of Hits; implementations without fetch
	// deduplication report 0.
	Shared    int64
	Evictions int64
	Used, Cap int64
}

// HitRate returns the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ChunkCache is the caching contract column cursors read chunks through: a
// keyed, size-budgeted cache of compressed chunks. Implementations must be
// safe for concurrent use. BufferPool (here) is the plain LRU used with the
// simulated disk; storage.Manager is the real ColumnBM buffer manager with
// clock eviction and singleflight fetch deduplication.
type ChunkCache interface {
	// GetChunk returns the cached chunk for key, calling load on a miss and
	// retaining the result subject to the implementation's budget.
	GetChunk(key string, load func() (*CachedChunk, error)) (*CachedChunk, error)
	// Drop empties the cache (the "cold run" reset), keeping the counters.
	Drop()
	// Stats returns a snapshot of the cache counters.
	Stats() CacheStats
	// ResetStats zeroes the counters without evicting.
	ResetStats()
}

// Prefetcher warms a ChunkCache ahead of a scan: a searcher about to read
// the value rows [startRow, endRow) of a column hands the range over, and
// the prefetcher arranges for the covering chunks (whose extents the index
// manifest records) to be fetched — batched into large sequential reads, on
// its own workers — before the cursor demand-pages them one at a time.
// Prefetch is advisory and must never block the caller for the duration of
// the I/O; implementations must be safe for concurrent use. A nil
// Prefetcher means demand paging only. storage.Prefetcher is the real
// implementation.
type Prefetcher interface {
	Prefetch(col *Column, startRow, endRow int)
	// Close stops the workers and waits for in-flight fetches to settle;
	// Prefetch calls after Close are no-ops.
	Close() error
}

// BufferPool is the simple LRU ChunkCache paired with SimDisk: eviction is
// least-recently-used by compressed size, and concurrent misses on the same
// key may load twice (the simulated disk has no latency worth
// deduplicating — storage.Manager adds singleflight for real stores).
type BufferPool struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*list.Element
	lru      *list.List // front = most recent

	hits      int64
	misses    int64
	evictions int64
}

type poolEntry struct {
	key   string
	chunk *CachedChunk
}

// NewBufferPool returns a pool with the given capacity in bytes. A zero or
// negative capacity means "unbounded" (everything stays hot once loaded).
func NewBufferPool(capacity int64) *BufferPool {
	return &BufferPool{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// GetChunk implements ChunkCache. The load callback runs without the pool
// lock held, so slow loads do not serialize unrelated lookups.
func (p *BufferPool) GetChunk(key string, load func() (*CachedChunk, error)) (*CachedChunk, error) {
	if c, ok := p.get(key); ok {
		return c, nil
	}
	c, err := load()
	if err != nil {
		return nil, err
	}
	p.put(key, c)
	return c, nil
}

// get returns the cached chunk for key, updating recency.
func (p *BufferPool) get(key string) (*CachedChunk, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.entries[key]
	if !ok {
		p.misses++
		return nil, false
	}
	p.hits++
	p.lru.MoveToFront(el)
	return el.Value.(*poolEntry).chunk, true
}

// put inserts a chunk, evicting least-recently-used entries as needed.
// Oversized entries (bigger than the whole pool) are admitted transiently:
// they evict everything else and are themselves dropped on the next insert,
// which keeps the pool useful under pathological capacities in the
// buffer-size ablation tests.
func (p *BufferPool) put(key string, c *CachedChunk) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if old, ok := p.entries[key]; ok {
		p.used -= old.Value.(*poolEntry).chunk.Size
		p.lru.Remove(old)
		delete(p.entries, key)
	}
	if p.capacity > 0 {
		for p.used+c.Size > p.capacity && p.lru.Len() > 0 {
			back := p.lru.Back()
			victim := back.Value.(*poolEntry)
			p.lru.Remove(back)
			delete(p.entries, victim.key)
			p.used -= victim.chunk.Size
			p.evictions++
		}
	}
	p.entries[key] = p.lru.PushFront(&poolEntry{key: key, chunk: c})
	p.used += c.Size
}

// Drop empties the pool (the "cold run" reset).
func (p *BufferPool) Drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[string]*list.Element)
	p.lru.Init()
	p.used = 0
}

// ResetStats zeroes the hit/miss/eviction counters without evicting.
func (p *BufferPool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits, p.misses, p.evictions = 0, 0, 0
}

// Stats returns a snapshot of the pool counters.
func (p *BufferPool) Stats() CacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheStats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Used: p.used, Cap: p.capacity}
}
