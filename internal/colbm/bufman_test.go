package colbm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func chunk(size int64) *CachedChunk {
	return &CachedChunk{Raw: []byte{1}, Size: size}
}

func mustGet(t *testing.T, m *Manager, key string, c *CachedChunk) *CachedChunk {
	t.Helper()
	got, err := m.GetChunk(key, func() (*CachedChunk, error) { return c, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestManagerEvictionAtBudgetBoundary(t *testing.T) {
	m := NewManager(100)
	mustGet(t, m, "a", chunk(40))
	mustGet(t, m, "b", chunk(40))
	if st := m.Stats(); st.Used != 80 || st.Evictions != 0 {
		t.Fatalf("under budget yet evicted: %+v", st)
	}
	// 80+40 > 100: exactly one eviction restores the invariant.
	mustGet(t, m, "c", chunk(40))
	st := m.Stats()
	if st.Used != 80 || st.Evictions != 1 {
		t.Errorf("boundary eviction: %+v", st)
	}
	if st.Used > st.Cap {
		t.Errorf("over budget: %+v", st)
	}
	// A chunk exactly at the remaining headroom must not evict.
	m2 := NewManager(100)
	mustGet(t, m2, "a", chunk(60))
	mustGet(t, m2, "b", chunk(40))
	if st := m2.Stats(); st.Used != 100 || st.Evictions != 0 {
		t.Errorf("exact fit evicted: %+v", st)
	}
}

func TestManagerClockSecondChance(t *testing.T) {
	m := NewManager(100)
	mustGet(t, m, "a", chunk(40))
	mustGet(t, m, "b", chunk(40))
	// Touch a: its reference bit makes it survive the next sweep.
	mustGet(t, m, "a", nil)
	mustGet(t, m, "c", chunk(40))

	hitsBefore := m.Stats().Hits
	mustGet(t, m, "a", nil) // must still be resident
	if m.Stats().Hits != hitsBefore+1 {
		t.Error("referenced frame was evicted; unreferenced one should have been")
	}
	if _, err := m.GetChunk("b", func() (*CachedChunk, error) {
		return nil, fmt.Errorf("b was evicted (expected)")
	}); err == nil {
		t.Error("unreferenced frame b survived while a was referenced")
	}
}

func TestManagerOversizedChunkIsTransient(t *testing.T) {
	m := NewManager(100)
	mustGet(t, m, "a", chunk(40))
	mustGet(t, m, "big", chunk(150)) // evicts everything, admitted transiently
	if st := m.Stats(); st.Used != 150 {
		t.Errorf("oversized chunk not admitted: %+v", st)
	}
	mustGet(t, m, "b", chunk(40)) // big must fall out now
	if st := m.Stats(); st.Used != 40 {
		t.Errorf("oversized chunk not dropped on next insert: %+v", st)
	}
}

func TestManagerUnboundedAndDrop(t *testing.T) {
	m := NewManager(0)
	for i := 0; i < 50; i++ {
		mustGet(t, m, fmt.Sprintf("k%d", i), chunk(1<<20))
	}
	st := m.Stats()
	if st.Used != 50<<20 || st.Evictions != 0 {
		t.Errorf("unbounded manager evicted: %+v", st)
	}
	m.Drop()
	if st := m.Stats(); st.Used != 0 {
		t.Errorf("Drop left %d bytes", st.Used)
	}
	// Counters survive Drop, reset separately.
	if st := m.Stats(); st.Misses != 50 {
		t.Errorf("Drop cleared counters: %+v", st)
	}
	m.ResetStats()
	if st := m.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("ResetStats: %+v", st)
	}
}

func TestManagerStatsAccounting(t *testing.T) {
	m := NewManager(0)
	mustGet(t, m, "a", chunk(10))
	mustGet(t, m, "a", nil)
	mustGet(t, m, "a", nil)
	mustGet(t, m, "b", chunk(10))
	st := m.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Used != 20 {
		t.Errorf("stats: %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate %v, want 0.5", got)
	}
	// A failed load counts as a miss and caches nothing.
	if _, err := m.GetChunk("c", func() (*CachedChunk, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("load error swallowed")
	}
	if st := m.Stats(); st.Misses != 3 || st.Used != 20 {
		t.Errorf("failed load polluted the cache: %+v", st)
	}

	// Under churn, a bounded manager serves some misses from its free list
	// (Recycled, a subset of Misses) and keeps that list within a quarter
	// of the budget; an unbounded one evicts nothing, so recycles nothing.
	for _, budget := range []int64{0, 400} {
		m := NewManager(budget)
		for i := 0; i < 40; i++ {
			c, err := m.acquire(fmt.Sprintf("k%d", i%9), cursorLoad(m, int64(80+i%3*5)))
			if err != nil {
				t.Fatal(err)
			}
			m.release(c)
			st := m.Stats()
			if st.Recycled > st.Misses || st.FreeBytes > budget/freeShare {
				t.Fatalf("budget %d after %d lookups: %+v", budget, i+1, st)
			}
		}
		if st := m.Stats(); (st.Recycled > 0) != (budget > 0) {
			t.Errorf("budget %d: %d misses recycled", budget, st.Recycled)
		}
		m.ResetStats()
		if st := m.Stats(); st.Recycled != 0 {
			t.Errorf("ResetStats kept Recycled: %+v", st)
		}
	}
}

// cursorLoad returns a loader that does what a cursor's miss does: it reads
// a chunk of size bytes, each of them byte(size), into a buffer from the
// manager, in which the chunk then lives.
func cursorLoad(m *Manager, size int64) func() (*CachedChunk, error) {
	return func() (*CachedChunk, error) {
		buf := m.buffer(int(size))
		for i := range buf {
			buf[i] = byte(size)
		}
		return &CachedChunk{Raw: buf, Size: size, buf: buf}, nil
	}
}

// intact reports whether every byte of the chunk is still what cursorLoad
// wrote: a recycled buffer is poisoned (TestMain) and then refilled.
func intact(c *CachedChunk) bool {
	for _, b := range c.Raw {
		if b != byte(c.Size) {
			return false
		}
	}
	return true
}

// The pin protocol: an evicted chunk's buffer is recycled when the last
// cursor releases it and not before, the next miss of a fitting size reads
// into it, and a chunk any GetChunk caller got — on a hit, or by sharing a
// cursor's in-flight load — is never recycled.
func TestManagerRecyclesOnlyReleasedCursorChunks(t *testing.T) {
	m := NewManager(400) // four 90-byte chunks; a free list of 100 bytes
	a, err := m.acquire("a", cursorLoad(m, 90))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "c", "d", "e"} {
		c, err := m.acquire(k, cursorLoad(m, 90))
		if err != nil {
			t.Fatal(err)
		}
		m.release(c)
	}
	if st := m.Stats(); st.Evictions != 1 || st.FreeBytes != 0 || !intact(a) {
		t.Fatalf("a evicted while pinned: %+v, bytes intact %v", st, intact(a))
	}
	m.release(a)
	if st := m.Stats(); st.FreeBytes != 90 || a.Raw[0] != 0xA5 {
		t.Fatalf("a released after its eviction: %+v, first byte %#x", st, a.Raw[0])
	}
	f, err := m.acquire("f", cursorLoad(m, 80)) // evicts b, released: recycled at once
	if err != nil {
		t.Fatal(err)
	}
	m.release(f)
	if st := m.Stats(); st.Recycled != 1 || st.FreeBytes != 90 || &f.Raw[0] != &a.Raw[0] {
		t.Fatalf("miss after a's release: %+v; read into a's buffer %v", st, &f.Raw[0] == &a.Raw[0])
	}

	// A GetChunk hit on a cursor's chunk, and a GetChunk caller sharing a
	// cursor's load, each keep their chunk's bytes through any churn.
	hit, err := m.GetChunk("c", func() (*CachedChunk, error) { return nil, fmt.Errorf("c not resident") })
	if err != nil {
		t.Fatal(err)
	}
	started, proceed := make(chan struct{}), make(chan struct{})
	loaded := make(chan *CachedChunk)
	go func() {
		c, err := m.acquire("g", func() (*CachedChunk, error) {
			close(started)
			<-proceed
			return cursorLoad(m, 90)()
		})
		if err != nil {
			t.Error(err)
		}
		m.release(c)
		loaded <- c
	}()
	<-started
	shared := make(chan *CachedChunk)
	go func() {
		c, err := m.GetChunk("g", func() (*CachedChunk, error) { return nil, fmt.Errorf("g loaded twice") })
		if err != nil {
			t.Error(err)
		}
		shared <- c
	}()
	for m.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	g := <-shared
	if g != <-loaded {
		t.Fatal("the sharer got another chunk than the loader")
	}
	for i := 0; i < 50; i++ {
		c, err := m.acquire(fmt.Sprintf("churn%d", i), cursorLoad(m, 85))
		if err != nil {
			t.Fatal(err)
		}
		m.release(c)
	}
	// A chunk larger than the whole budget evicts every frame left, so c
	// and g are gone whichever frames CLOCK kept through the churn.
	big, err := m.acquire("big", cursorLoad(m, 500))
	if err != nil {
		t.Fatal(err)
	}
	m.release(big)
	if st := m.Stats(); st.Recycled < 40 || st.Used != 500 || !intact(hit) || !intact(g) {
		t.Fatalf("after 50 misses: %+v; GetChunk hit intact %v, shared load intact %v", st, intact(hit), intact(g))
	}
}

// The free list is best fit — the smallest buffer that holds the request and
// is at most a quarter larger — and drops its oldest buffer past the bound.
func TestManagerFreeListBestFitAndBound(t *testing.T) {
	m := NewManager(1000) // bound 250
	m.mu.Lock()
	for _, n := range []int{120, 100, 110} {
		m.recycleLocked(&CachedChunk{buf: make([]byte, n)})
	}
	m.mu.Unlock()
	if st := m.Stats(); st.FreeBytes != 210 {
		t.Fatalf("the oldest buffer (120) should have made room: %+v", st)
	}
	for _, tc := range []struct{ n, cap int }{{96, 100}, {50, 50}, {100, 110}, {100, 100}} {
		if b := m.buffer(tc.n); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("buffer(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
	}
	if st := m.Stats(); st.Recycled != 2 || st.FreeBytes != 0 {
		t.Errorf("after the fits: %+v", st)
	}
}

// TestManagerSingleflight drives many concurrent readers at the same cold
// key: exactly one loader must run, everyone must get its result, and the
// rest must be counted as shared. Run under -race (CI does) this also
// checks the synchronization of the fetch handoff.
func TestManagerSingleflight(t *testing.T) {
	m := NewManager(0)
	const readers = 32
	var loads atomic.Int64
	var wg sync.WaitGroup
	results := make([]*CachedChunk, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.GetChunk("hot", func() (*CachedChunk, error) {
				loads.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the fetch open so others pile up
				return chunk(8), nil
			})
		}(i)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("loader ran %d times, want 1", n)
	}
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("reader %d got a different chunk", i)
		}
	}
	st := m.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Shared != readers-1 {
		t.Errorf("shared = %d, want %d", st.Shared, readers-1)
	}
}

// TestSharedFetchSetsRefBit guards the eviction fairness of contended
// chunks: a waiter coalescing onto an in-flight fetch proves the chunk is
// hot, so it must be admitted with its CLOCK reference bit set (previously
// it was admitted cold and was first in line for eviction) and the wait
// must count as a hit in the warm-rate accounting. Run under -race.
func TestSharedFetchSetsRefBit(t *testing.T) {
	m := NewManager(100) // room for two 40-byte chunks
	loadStarted := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.GetChunk("a", func() (*CachedChunk, error) {
			close(loadStarted)
			<-release
			return chunk(40), nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-loadStarted
	const sharers = 2
	for i := 0; i < sharers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.GetChunk("a", func() (*CachedChunk, error) {
				t.Error("sharer ran its own load despite the in-flight fetch")
				return chunk(40), nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Shared < sharers {
		if time.Now().After(deadline) {
			t.Fatal("sharers never registered on the in-flight fetch")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	st := m.Stats()
	if st.Misses != 1 || st.Shared != sharers || st.Hits != sharers {
		t.Errorf("after shared fetch: %+v (want 1 miss, %d shared counted as hits)", st, sharers)
	}

	// The contended chunk was admitted referenced: under eviction pressure
	// the clock hand must give it a second chance and take the untouched
	// "b" instead.
	mustGet(t, m, "b", chunk(40))
	mustGet(t, m, "c", chunk(40)) // exceeds the budget: one eviction
	if _, err := m.GetChunk("a", func() (*CachedChunk, error) {
		return nil, fmt.Errorf("contended chunk was evicted first")
	}); err != nil {
		t.Fatal(err)
	}
	reloaded := false
	if _, err := m.GetChunk("b", func() (*CachedChunk, error) {
		reloaded = true
		return chunk(40), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reloaded {
		t.Error("unreferenced chunk survived; the clock ignored the preset bit")
	}
}

// TestManagerConcurrentMixedKeys hammers the manager from many goroutines
// over a key space larger than the budget — the -race workout for the
// clock sweep, the singleflight map, and the stats counters together.
func TestManagerConcurrentMixedKeys(t *testing.T) {
	m := NewManager(64) // tiny: constant eviction pressure
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%20)
				if _, err := m.GetChunk(key, func() (*CachedChunk, error) {
					return chunk(16), nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Used > 64 {
		t.Errorf("budget violated after concurrent churn: %+v", st)
	}
	// Every successful lookup is a hit or a miss; a shared wait is a hit
	// that also counts as Shared (see CacheStats).
	if st.Hits+st.Misses != 8*500 || st.Shared > st.Hits {
		t.Errorf("lookups leaked: %+v", st)
	}
}

// TestManagerDropPrefix: segment GC releases a dead segment's frames by
// key prefix — under an unbounded budget nothing else ever would.
func TestManagerDropPrefix(t *testing.T) {
	m := NewManager(0)
	load := func(val byte) func() (*CachedChunk, error) {
		return func() (*CachedChunk, error) {
			return &CachedChunk{Raw: []byte{val}, Size: 10}, nil
		}
	}
	for _, key := range []string{"seg-000001.TD.docidc#0", "seg-000001.TD.tfc#0", "seg-000002.TD.docidc#0"} {
		if _, err := m.GetChunk(key, load(1)); err != nil {
			t.Fatal(err)
		}
	}
	if freed := m.DropPrefix("seg-000001."); freed != 20 {
		t.Errorf("DropPrefix freed %d bytes, want 20", freed)
	}
	if st := m.Stats(); st.Used != 10 {
		t.Errorf("after DropPrefix: %d bytes resident, want 10", st.Used)
	}
	// The survivor is still a hit; the dropped keys reload.
	hits0 := m.Stats().Hits
	if _, err := m.GetChunk("seg-000002.TD.docidc#0", load(2)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Hits != hits0+1 {
		t.Error("survivor chunk was not served from cache")
	}
	misses0 := m.Stats().Misses
	if _, err := m.GetChunk("seg-000001.TD.docidc#0", load(3)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Misses != misses0+1 {
		t.Error("dropped chunk was served from cache")
	}
}
