package colbm

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// AdmissionPolicy selects how the Manager admits chunks against its byte
// budget and which resident chunk an over-budget insert evicts.
type AdmissionPolicy int

const (
	// AdmissionClock is the classic single-area CLOCK (second chance)
	// policy: every admitted chunk joins one ring, a hit sets its
	// reference bit, eviction sweeps a hand that skips recently
	// referenced frames. Cheap and fair, but a single cold full-index
	// scan touches every frame once and flushes the entire hot set.
	AdmissionClock AdmissionPolicy = iota
	// Admission2Q is the scan-resistant 2Q policy: first-touch chunks
	// enter a probationary FIFO, and only a chunk referenced again AFTER
	// its probationary eviction — while the ghost list still remembers
	// its key — is promoted into the CLOCK-managed main area.
	// Re-references while still probationary are treated as the same
	// correlated visit (a scanning cursor touches one chunk once per
	// vector, many times in a row), so even a scan that re-touches its
	// chunks in passing churns through probation and never displaces the
	// promoted working set.
	Admission2Q
)

// ManagerOption tunes a Manager at construction.
type ManagerOption func(*Manager)

// WithAdmissionPolicy selects the admission/eviction policy (default
// AdmissionClock).
func WithAdmissionPolicy(p AdmissionPolicy) ManagerOption {
	return func(m *Manager) { m.policy = p }
}

// probDivisor and ghostDivisor size the 2Q areas from the byte budget:
// probation (the "A1in" FIFO) holds at most budget/probDivisor bytes
// before evicting its own head, and the ghost list (the "A1out" key
// memory) remembers evicted-probation keys whose chunk sizes sum to at
// most budget/ghostDivisor. The classic 2Q tuning: 25% in, 50% out.
const (
	probDivisor  = 4
	ghostDivisor = 2
)

// Manager is the ColumnBM buffer manager: a ChunkCache with a fixed
// byte budget over *compressed* chunks (the central ColumnBM decision —
// caching compressed multiplies effective capacity, and the PFOR decoders
// are fast enough to decompress per access), CLOCK (second chance)
// eviction — optionally behind the scan-resistant 2Q admission filter —
// and singleflight deduplication so concurrent readers missing on the
// same chunk trigger exactly one store fetch.
//
// CLOCK instead of strict LRU: a hit only sets a reference bit under the
// lock (no list splice), and eviction sweeps a hand that skips recently
// referenced frames — the classic approximation real buffer managers use
// because it keeps the hit path cheap under concurrency.
type Manager struct {
	budget int64 // bytes; <= 0 means unbounded
	policy AdmissionPolicy

	mu     sync.Mutex
	frames map[string]*frame
	order  *list.List    // clock ring (2Q: the main area) in insertion order
	hand   *list.Element // next eviction candidate; nil wraps to Front
	used   int64

	// 2Q state (empty under AdmissionClock): the probationary FIFO of
	// first-touch frames (Front = oldest) and the ghost list remembering
	// keys recently evicted from probation, so a re-reference after
	// eviction still reads as frequency and promotes.
	probOrder  *list.List
	probUsed   int64
	ghosts     map[string]*list.Element
	ghostOrder *list.List // of ghostEntry, Front = oldest
	ghostUsed  int64

	inflight map[string]*fetch

	hits, misses, shared, evictions int64
}

// frame is one resident chunk plus its CLOCK reference bit; prob marks
// frames still in the 2Q probationary FIFO.
type frame struct {
	key   string
	chunk *CachedChunk
	ref   bool
	prob  bool
	elem  *list.Element
}

// ghostEntry is one remembered eviction: the key and the bytes its chunk
// occupied (what admitting it again would cost — the unit the ghost list
// is budgeted in).
type ghostEntry struct {
	key  string
	size int64
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
}

// NewManager returns a buffer manager with the given budget in bytes. A
// zero or negative budget means "unbounded" (everything stays hot once
// loaded).
func NewManager(budget int64, opts ...ManagerOption) *Manager {
	m := &Manager{
		budget:     budget,
		frames:     make(map[string]*frame),
		order:      list.New(),
		probOrder:  list.New(),
		ghosts:     make(map[string]*list.Element),
		ghostOrder: list.New(),
		inflight:   make(map[string]*fetch),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Budget returns the configured capacity in bytes (0 = unbounded).
func (m *Manager) Budget() int64 { return m.budget }

// Policy returns the configured admission policy.
func (m *Manager) Policy() AdmissionPolicy { return m.policy }

// GetChunk returns the cached chunk for key. On a miss, exactly one caller
// runs load (without the manager lock held); every concurrent caller for
// the same key waits on that load and shares its result, so a thundering
// herd of cold queries costs one disk fetch per chunk, not one per query.
// A failed *shared* fetch (e.g. a dropped prefetch batch) does not fail
// the waiters: they retry, and one of them becomes the loader.
func (m *Manager) GetChunk(key string, load func() (*CachedChunk, error)) (*CachedChunk, error) {
	var fl *fetch
	for {
		m.mu.Lock()
		if f, ok := m.frames[key]; ok {
			m.touchLocked(f)
			m.hits++
			c := f.chunk
			m.mu.Unlock()
			return c, nil
		}
		if wait, ok := m.inflight[key]; ok {
			wait.sharers++
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
		m.insertLocked(key, fl.chunk, fl.sharers > 0)
	}
	m.mu.Unlock()
	close(fl.done)
	return fl.chunk, fl.err
}

// touchLocked records a reference to a resident frame: the CLOCK bit for
// main-area frames. Probationary frames deliberately stay put — a touch
// while still probationary is correlated with the admission (the same
// scan pass), not evidence of a working set; the frequency signal 2Q
// promotes on is a reference that arrives after probationary eviction,
// through the ghost list (see insertLocked).
func (m *Manager) touchLocked(f *frame) {
	if !f.prob {
		f.ref = true
	}
}

// BeginFetch claims keys for a batched fetch: the returned subset holds the
// keys that are neither resident nor already being fetched, each now
// registered as in flight — demand readers (GetChunk) arriving before the
// batch lands wait on it instead of issuing duplicate store reads. Claimed
// keys are counted as misses (they are about to cost a store fetch). The
// caller MUST follow with EndFetch covering every claimed key, even on
// failure, or waiters hang. The returned keys preserve input order.
func (m *Manager) BeginFetch(keys []string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var claimed []string
	for _, key := range keys {
		if _, ok := m.frames[key]; ok {
			continue
		}
		if _, ok := m.inflight[key]; ok {
			continue
		}
		m.misses++
		m.inflight[key] = &fetch{done: make(chan struct{})}
		claimed = append(claimed, key)
	}
	return claimed
}

// EndFetch completes a BeginFetch for a subset of its claimed keys: each
// key's chunk is admitted (reference bit set if demand readers were already
// waiting) and its waiters are woken. A key missing from chunks — or every
// key, when err is non-nil — fails its waiters instead; they will retry
// through the demand path. Keys never claimed are ignored.
func (m *Manager) EndFetch(claimed []string, chunks map[string]*CachedChunk, err error) {
	var done []*fetch
	m.mu.Lock()
	for _, key := range claimed {
		fl, ok := m.inflight[key]
		if !ok {
			continue
		}
		delete(m.inflight, key)
		fl.chunk, fl.err = chunks[key], err
		if fl.err == nil && fl.chunk == nil {
			fl.err = fmt.Errorf("colbm: batched fetch did not deliver chunk %q", key)
		}
		if fl.err == nil {
			m.insertLocked(key, fl.chunk, fl.sharers > 0)
		}
		done = append(done, fl)
	}
	m.mu.Unlock()
	for _, fl := range done {
		close(fl.done)
	}
}

// Admit offers an already-in-memory chunk to the cache — the hook that
// lets the prefetcher keep adjacent chunks its aligned store read already
// paid for. Admission is free-list only: a chunk that is resident, in
// flight, or would force an eviction is declined (evicting paid-for data
// to keep incidental bytes would invert the cache's priorities). Returns
// whether the chunk was admitted.
func (m *Manager) Admit(key string, c *CachedChunk) bool {
	if c == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.frames[key]; ok {
		return false
	}
	if _, ok := m.inflight[key]; ok {
		return false
	}
	if m.budget > 0 && m.used+c.Size > m.budget {
		return false
	}
	m.insertLocked(key, c, false)
	return true
}

// insertLocked admits a chunk, evicting as needed to respect the budget;
// ref pre-sets the CLOCK reference bit (used when the fetch already had
// waiters sharing it). Under 2Q a first-touch chunk lands in the
// probationary FIFO; a ghost hit (or a fetch that already had sharers)
// goes straight to the main area. Oversized chunks (bigger than the whole
// budget) are admitted transiently: they evict everything else and fall
// out on the next insert, which keeps the manager useful under
// pathological budgets.
func (m *Manager) insertLocked(key string, c *CachedChunk, ref bool) {
	if old, ok := m.frames[key]; ok {
		m.removeLocked(old)
	}
	prob := false
	if m.policy == Admission2Q {
		if _, ghost := m.ghosts[key]; ghost {
			m.dropGhostLocked(key)
			ref = true // re-reference after eviction: frequency, not luck
		} else if !ref {
			prob = true
		}
	}
	if m.budget > 0 {
		for m.used+c.Size > m.budget && m.order.Len()+m.probOrder.Len() > 0 {
			m.evictOneLocked()
		}
	}
	f := &frame{key: key, chunk: c, ref: ref, prob: prob}
	if prob {
		f.elem = m.probOrder.PushBack(f)
		m.probUsed += c.Size
	} else {
		f.elem = m.order.PushBack(f)
	}
	m.frames[key] = f
	m.used += c.Size
}

// evictOneLocked frees one frame. Under 2Q the probationary FIFO pays
// first whenever it holds more than its quarter of the budget (or the
// main area is empty): a cold scan's chunks are all probationary, so the
// scan churns its own quarter and the promoted working set keeps the
// rest. Otherwise — and always under AdmissionClock — the CLOCK hand
// advances until it finds a frame whose reference bit is clear, clearing
// bits as it passes. Two full sweeps bound the scan: the first clears
// every bit, the second must evict.
func (m *Manager) evictOneLocked() {
	if m.policy == Admission2Q && m.probOrder.Len() > 0 &&
		(m.probUsed > m.budget/probDivisor || m.order.Len() == 0) {
		f := m.probOrder.Front().Value.(*frame)
		m.removeLocked(f)
		m.evictions++
		m.addGhostLocked(f.key, f.chunk.Size)
		return
	}
	for i := 0; i <= 2*m.order.Len(); i++ {
		if m.hand == nil {
			m.hand = m.order.Front()
		}
		if m.hand == nil {
			return // main area empty (2Q corner: probation under target)
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
		return
	}
}

// addGhostLocked remembers an evicted-probation key, evicting the oldest
// ghosts once their remembered sizes exceed the ghost share of the
// budget. Ghosts hold no chunk data — only the key and a size — so the
// real memory cost is a map entry per remembered key.
func (m *Manager) addGhostLocked(key string, size int64) {
	if m.budget <= 0 {
		return // unbounded managers never evict, so ghosts are unreachable
	}
	m.dropGhostLocked(key)
	m.ghosts[key] = m.ghostOrder.PushBack(ghostEntry{key: key, size: size})
	m.ghostUsed += size
	for m.ghostUsed > m.budget/ghostDivisor && m.ghostOrder.Len() > 0 {
		oldest := m.ghostOrder.Front().Value.(ghostEntry)
		m.ghostOrder.Remove(m.ghostOrder.Front())
		delete(m.ghosts, oldest.key)
		m.ghostUsed -= oldest.size
	}
}

// dropGhostLocked forgets a remembered key, if present.
func (m *Manager) dropGhostLocked(key string) {
	if e, ok := m.ghosts[key]; ok {
		m.ghostUsed -= e.Value.(ghostEntry).size
		m.ghostOrder.Remove(e)
		delete(m.ghosts, key)
	}
}

// removeLocked unlinks a frame from the map, its list, and the byte count.
func (m *Manager) removeLocked(f *frame) {
	if f.prob {
		m.probOrder.Remove(f.elem)
		m.probUsed -= f.chunk.Size
	} else {
		if m.hand == f.elem {
			m.hand = f.elem.Next()
		}
		m.order.Remove(f.elem)
	}
	delete(m.frames, f.key)
	m.used -= f.chunk.Size
}

// DropPrefix evicts every resident chunk whose key starts with prefix —
// the hook segment garbage collection uses to release a deleted segment's
// frames. Chunk keys are blob-name-derived and segment blob names carry
// the segment-directory prefix, so one call frees exactly one dead
// segment; without it an *unbounded* manager would pin every chunk ever
// read from superseded generations forever (a bounded one merely wastes
// budget on them until CLOCK cycles through). Ghost entries under the
// prefix are forgotten too. Returns the bytes released.
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
	for key := range m.ghosts {
		if strings.HasPrefix(key, prefix) {
			m.dropGhostLocked(key)
		}
	}
	return freed
}

// Drop empties the manager (the "cold run" reset), keeping the counters.
// Ghosts are forgotten with the frames — a cold run should carry no
// admission memory either. In-flight fetches are unaffected; they insert
// their result afterwards.
func (m *Manager) Drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames = make(map[string]*frame)
	m.order.Init()
	m.hand = nil
	m.used = 0
	m.probOrder.Init()
	m.probUsed = 0
	m.ghosts = make(map[string]*list.Element)
	m.ghostOrder.Init()
	m.ghostUsed = 0
}

// ResetStats zeroes the counters without evicting.
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hits, m.misses, m.shared, m.evictions = 0, 0, 0, 0
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
	}
}

var _ ChunkCache = (*Manager)(nil)
