package colbm

import (
	"sync/atomic"

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
//
// A chunk a cursor read lives in its read buffer: Raw and, on little-endian
// hosts, Block.Words view it in place, the chunk's first byte on an 8-byte
// boundary. The buffer holds the store's whole widened read (for a
// FileStore at most 2·4 KiB + 16 B over the stored bytes; a recycled buffer
// is at most a quarter larger than the read), all of it retained while the
// chunk is resident, though only the stored bytes count in Size. Pin
// contract: a cursor pins a chunk for one decode or copy, and the manager
// recycles the buffer of an evicted chunk only once no cursor pins it. A
// chunk GetChunk hands out, or shares through singleflight with a GetChunk
// caller, is never recycled: it keeps its bytes for as long as it is held.
type CachedChunk struct {
	Block *compress.Block // non-nil for encoded chunks
	Raw   []byte          // non-nil for uncompressed chunks
	// StrOff, for string chunks, holds n+1 offsets into Raw: value i is
	// Raw[StrOff[i]:StrOff[i+1]].
	StrOff []uint32
	Size   int64 // footprint charged against the budget: the stored bytes plus StrOff

	// buf is the read buffer the chunk lives in while the manager may
	// recycle it after eviction; nil once that may not happen. Guarded by
	// the manager's lock.
	buf []byte
	// pins counts the cursors reading the chunk, plus evicted once the
	// manager has evicted it: whoever brings it to exactly evicted
	// recycles buf.
	pins atomic.Int64
}

// CacheStats reports hit/miss/eviction counters and occupancy of a
// ChunkCache.
//
// Accounting identity: every successful GetChunk is counted exactly once
// as a hit or a miss, so Hits+Misses is the number of completed lookups.
// Shared is not a third outcome: a lookup that waited on another caller's
// load and got its chunk paid no store fetch of its own, so it is a hit
// that is also counted in Shared. Shared <= Hits as long as no load fails (a failed
// shared wait keeps its Shared count and retries as a fresh lookup).
type CacheStats struct {
	Hits, Misses int64
	// Shared counts lookups coalesced onto another caller's in-flight load
	// (singleflight), a subset of Hits.
	Shared    int64
	Evictions int64
	Used, Cap int64
	// Recycled counts misses whose read buffer came from the free list of
	// evicted chunks' buffers (a subset of Misses); FreeBytes is the free
	// list's current size, at most a quarter of Cap.
	Recycled  int64
	FreeBytes int64
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
// safe for concurrent use. Manager is the one implementation, for simulated
// and persisted stores alike.
type ChunkCache interface {
	// GetChunk returns the cached chunk for key, calling load on a miss
	// (before it returns, never later) and retaining the result subject to
	// the implementation's budget.
	GetChunk(key string, load func() (*CachedChunk, error)) (*CachedChunk, error)
	// Drop empties the cache (the "cold run" reset), keeping the counters.
	Drop()
	// Stats returns a snapshot of the cache counters.
	Stats() CacheStats
	// ResetStats zeroes the counters without evicting.
	ResetStats()

	// acquire, release and buffer are the cursors' way in. acquire is
	// GetChunk whose chunk stays pinned until release; buffer(n) returns a
	// read buffer of length n for a miss, recycled where one fits.
	acquire(key string, load func() (*CachedChunk, error)) (*CachedChunk, error)
	release(c *CachedChunk)
	buffer(n int) []byte
}
