package colbm

import (
	"container/list"
	"slices"
	"strings"
	"sync"
)

// Manager is the ColumnBM buffer manager: a ChunkCache with a fixed
// byte budget over *compressed* chunks (the central ColumnBM decision —
// caching compressed multiplies effective capacity, and the PFOR decoders
// are fast enough to decompress per access), CLOCK (second chance)
// eviction, and singleflight deduplication so concurrent readers missing
// on the same chunk trigger exactly one store fetch. A chunk enters the
// manager only through GetChunk.
//
// CLOCK instead of strict LRU: a hit only sets a reference bit under the
// lock (no list splice), and eviction sweeps a hand that skips recently
// referenced frames — the classic approximation real buffer managers use
// because it keeps the hit path cheap under concurrency.
type Manager struct {
	budget int64 // bytes; <= 0 means unbounded

	mu     sync.Mutex
	frames map[string]*frame
	order  *list.List    // clock ring in insertion order
	hand   *list.Element // next eviction candidate; nil wraps to Front
	used   int64

	inflight map[string]*fetch

	// free holds the read buffers of evicted chunks, oldest first, for
	// later misses to read into; freeBytes is their summed length, at most
	// budget/freeShare.
	free      [][]byte
	freeBytes int64

	hits, misses, shared, evictions, recycled int64
}

// freeShare bounds the free list at a quarter of the budget.
const freeShare = 4

// evicted is added to an evicted chunk's pin count; no pin count reaches it.
const evicted = 1 << 32

// poisonRecycled makes the manager fill every buffer it recycles with 0xA5,
// so a reader of a recycled buffer sees garbage rather than the old bytes.
// It is a test hook: the package's TestMain sets it before any manager runs.
var poisonRecycled bool

// frame is one resident chunk plus its CLOCK reference bit.
type frame struct {
	key   string
	chunk *CachedChunk
	ref   bool
	elem  *list.Element
}

// fetch is one in-flight load other callers of the same key wait on.
type fetch struct {
	done  chan struct{}
	chunk *CachedChunk
	err   error
	// sharers counts callers that coalesced onto this load. A chunk that
	// had waiters is hot by definition, so it is admitted with its CLOCK
	// reference bit already set — otherwise the most contended chunk would
	// be the first eviction candidate.
	sharers int
	// pins counts the cursors among the load's callers, whose pins the
	// chunk enters with; keep records a GetChunk caller among them.
	pins int64
	keep bool
}

// NewManager returns a buffer manager with the given budget in bytes. A
// zero or negative budget means "unbounded" (everything stays hot once
// loaded).
func NewManager(budget int64) *Manager {
	return &Manager{
		budget:   budget,
		frames:   make(map[string]*frame),
		order:    list.New(),
		inflight: make(map[string]*fetch),
	}
}

// Budget returns the configured capacity in bytes (0 = unbounded).
func (m *Manager) Budget() int64 { return m.budget }

// GetChunk returns the cached chunk for key. On a miss, exactly one caller
// runs load (without the manager lock held); every concurrent caller for
// the same key waits on that load and shares its result, so a thundering
// herd of cold queries costs one disk fetch per chunk, not one per query.
// A failed shared load does not fail the waiters: they retry, and one of
// them becomes the loader. The chunk returned is never recycled.
func (m *Manager) GetChunk(key string, load func() (*CachedChunk, error)) (*CachedChunk, error) {
	return m.get(key, load, false)
}

// acquire is GetChunk for a cursor: the chunk comes back pinned, and its
// buffer may be recycled once it is evicted and released.
func (m *Manager) acquire(key string, load func() (*CachedChunk, error)) (*CachedChunk, error) {
	return m.get(key, load, true)
}

// get is the one lookup behind GetChunk and acquire. A bounded manager pins
// a cursor's chunk and marks any other caller's chunk never to be recycled;
// an unbounded one never evicts, so it does neither.
func (m *Manager) get(key string, load func() (*CachedChunk, error), cursor bool) (*CachedChunk, error) {
	bounded := m.budget > 0
	var fl *fetch
	for {
		m.mu.Lock()
		if f, ok := m.frames[key]; ok {
			f.ref = true
			m.hits++
			c := f.chunk
			if bounded {
				if cursor {
					c.pins.Add(1)
				} else {
					c.buf = nil
				}
			}
			m.mu.Unlock()
			return c, nil
		}
		if wait, ok := m.inflight[key]; ok {
			wait.sharers++
			if cursor {
				wait.pins++
			} else {
				wait.keep = true
			}
			m.shared++
			m.mu.Unlock()
			<-wait.done
			if wait.err == nil {
				// A successful shared wait is a hit for warm-rate purposes:
				// this caller paid no store fetch of its own. A failed one
				// counts as whatever the retry turns into.
				m.mu.Lock()
				m.hits++
				m.mu.Unlock()
				return wait.chunk, nil
			}
			continue // the load failed on its owner; retry as our own
		}
		m.misses++
		fl = &fetch{done: make(chan struct{})}
		m.inflight[key] = fl
		m.mu.Unlock()
		break
	}

	fl.chunk, fl.err = load()

	m.mu.Lock()
	delete(m.inflight, key)
	if fl.err == nil && fl.chunk != nil {
		if bounded {
			if cursor {
				fl.pins++
			} else {
				fl.keep = true
			}
			if fl.keep {
				fl.chunk.buf = nil
			}
			fl.chunk.pins.Add(fl.pins)
		}
		m.insertLocked(key, fl.chunk, fl.sharers > 0)
	}
	m.mu.Unlock()
	close(fl.done)
	return fl.chunk, fl.err
}

// insertLocked admits a chunk, evicting as needed to respect the budget;
// ref pre-sets the CLOCK reference bit (used when the fetch already had
// waiters sharing it). Oversized chunks (bigger than the whole budget) are
// admitted transiently: they evict everything else and fall out on the
// next insert, which keeps the manager useful under pathological budgets.
func (m *Manager) insertLocked(key string, c *CachedChunk, ref bool) {
	if old, ok := m.frames[key]; ok {
		m.removeLocked(old)
	}
	if m.budget > 0 {
		for m.used+c.Size > m.budget && m.order.Len() > 0 {
			m.evictOneLocked()
		}
	}
	f := &frame{key: key, chunk: c, ref: ref}
	f.elem = m.order.PushBack(f)
	m.frames[key] = f
	m.used += c.Size
}

// evictOneLocked frees one frame of a non-empty ring: the CLOCK hand
// advances until it finds a frame whose reference bit is clear, clearing
// bits as it passes. Two full sweeps bound the scan: the first clears
// every bit, the second must evict.
func (m *Manager) evictOneLocked() {
	for i := 0; i <= 2*m.order.Len(); i++ {
		if m.hand == nil {
			m.hand = m.order.Front()
		}
		f := m.hand.Value.(*frame)
		next := m.hand.Next()
		if f.ref {
			f.ref = false
			m.hand = next
			continue
		}
		m.removeLocked(f)
		m.evictions++
		m.hand = next
		if c := f.chunk; c.buf != nil && c.pins.Add(evicted) == evicted {
			m.recycleLocked(c) // no cursor pins it; otherwise the last release does this
		}
		return
	}
}

// release ends a cursor's pin. The last pin of an evicted chunk recycles
// its buffer.
func (m *Manager) release(c *CachedChunk) {
	if m.budget > 0 && c.pins.Add(-1) == evicted {
		m.mu.Lock()
		m.recycleLocked(c)
		m.mu.Unlock()
	}
}

// recycleLocked moves an evicted, unpinned chunk's buffer onto the free
// list, dropping the oldest buffers past the bound.
func (m *Manager) recycleLocked(c *CachedChunk) {
	buf := c.buf[:cap(c.buf)]
	c.buf = nil
	if poisonRecycled {
		for i := range buf {
			buf[i] = 0xA5
		}
	}
	m.free = append(m.free, buf)
	m.freeBytes += int64(len(buf))
	for m.freeBytes > m.budget/freeShare {
		m.freeBytes -= int64(len(m.free[0]))
		m.free = slices.Delete(m.free, 0, 1)
	}
}

// buffer returns a read buffer of length n for a cursor's miss: the
// smallest free buffer that holds n bytes and is at most a quarter larger,
// or a fresh one.
func (m *Manager) buffer(n int) []byte {
	if m.budget > 0 {
		m.mu.Lock()
		best := -1
		for i, b := range m.free {
			if l := len(b); l >= n && l-n <= n/4 && (best < 0 || l < len(m.free[best])) {
				best = i
			}
		}
		if best >= 0 {
			b := m.free[best]
			m.free = slices.Delete(m.free, best, best+1)
			m.freeBytes -= int64(len(b))
			m.recycled++
			m.mu.Unlock()
			return b[:n]
		}
		m.mu.Unlock()
	}
	return make([]byte, n)
}

// removeLocked unlinks a frame from the map, the ring, and the byte count.
func (m *Manager) removeLocked(f *frame) {
	if m.hand == f.elem {
		m.hand = f.elem.Next()
	}
	m.order.Remove(f.elem)
	delete(m.frames, f.key)
	m.used -= f.chunk.Size
}

// DropPrefix evicts every resident chunk whose key starts with prefix —
// the hook segment garbage collection uses to release a deleted segment's
// frames. Chunk keys are blob-name-derived and segment blob names carry
// the segment-directory prefix, so one call frees exactly one dead
// segment; without it an *unbounded* manager would pin every chunk ever
// read from superseded generations forever (a bounded one merely wastes
// budget on them until CLOCK cycles through). Returns the bytes released.
func (m *Manager) DropPrefix(prefix string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var freed int64
	for key, f := range m.frames {
		if strings.HasPrefix(key, prefix) {
			freed += f.chunk.Size
			m.removeLocked(f)
		}
	}
	return freed
}

// Drop empties the manager (the "cold run" reset), keeping the counters.
// In-flight fetches are unaffected; they insert their result afterwards.
func (m *Manager) Drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames = make(map[string]*frame)
	m.order.Init()
	m.hand = nil
	m.used = 0
}

// ResetStats zeroes the counters without evicting.
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hits, m.misses, m.shared, m.evictions, m.recycled = 0, 0, 0, 0, 0
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{
		Hits:      m.hits,
		Misses:    m.misses,
		Shared:    m.shared,
		Evictions: m.evictions,
		Used:      m.used,
		Cap:       m.budget,
		Recycled:  m.recycled,
		FreeBytes: m.freeBytes,
	}
}

var _ ChunkCache = (*Manager)(nil)
