package storage

import (
	"sync"
	"testing"
	"time"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// prefetchFixture builds a single-column table over a FileStore + Manager
// with small chunks (chunkLen values each), returning the column with the
// store's counters zeroed.
func prefetchFixture(t *testing.T, nchunks, chunkLen int) (*colbm.Column, *FileStore, *colbm.Manager) {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	mgr := colbm.NewManager(0)
	b := colbm.NewBuilder("T", fs, mgr, []colbm.ColumnSpec{
		{Name: "v", Type: vector.Int64, Enc: colbm.EncPFOR, ChunkLen: chunkLen},
	})
	vals := make([]int64, nchunks*chunkLen)
	for i := range vals {
		vals[i] = int64(i % 251)
	}
	b.SetInt64("v", vals)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	col, err := tab.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	return col, fs, mgr
}

// waitPrefetched blocks until the prefetcher has delivered (or dropped)
// everything it accepted — whether a chunk arrived through its own claim
// or as an adjacent admit from a neighboring run's widened span.
func waitPrefetched(t *testing.T, pf *Prefetcher, chunks int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := pf.Stats()
		if st.Chunks+st.Adjacent >= chunks {
			return
		}
		if st.Dropped > 0 {
			t.Fatalf("prefetch dropped runs: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch never completed: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetcherCoalescesReads is the core property: prefetching a range
// spanning N contiguous missing chunks issues ONE store read (not N), and
// the cursor that follows is served entirely from the manager.
func TestPrefetcherCoalescesReads(t *testing.T) {
	const nchunks, chunkLen = 8, 256
	col, fs, mgr := prefetchFixture(t, nchunks, chunkLen)
	pf := NewPrefetcher(fs, mgr, 2)
	defer pf.Close()

	pf.Prefetch(col, 0, col.N)
	waitPrefetched(t, pf, nchunks)
	if got := fs.Stats().Reads; got != 1 {
		t.Errorf("prefetch issued %d reads for %d contiguous chunks, want 1", got, nchunks)
	}

	cur := colbm.NewCursor(col)
	v := vector.New(vector.Int64, chunkLen)
	for start := 0; start < col.N; start += chunkLen {
		if err := cur.Read(v, start, chunkLen); err != nil {
			t.Fatal(err)
		}
		for i, got := range v.I64 {
			if want := int64((start + i) % 251); got != want {
				t.Fatalf("row %d: %d != %d", start+i, got, want)
			}
		}
	}
	if got := fs.Stats().Reads; got != 1 {
		t.Errorf("cursor re-read prefetched data: %d store reads total", got)
	}
	// Claims count as misses, later cursor touches as hits — the cold
	// hit-rate accounting stays meaningful under prefetch.
	if st := mgr.Stats(); st.Misses != nchunks {
		t.Errorf("manager misses %d, want %d (one per claimed chunk)", st.Misses, nchunks)
	}

	// Re-prefetching a resident range claims nothing and reads nothing.
	pf.Prefetch(col, 0, col.N)
	time.Sleep(10 * time.Millisecond)
	if got := fs.Stats().Reads; got != 1 {
		t.Errorf("re-prefetch of resident range issued reads: %d total", got)
	}
}

// TestPrefetcherSplitsAtResidentChunks: chunks already cached split the
// claimed set into separate contiguous runs, one read each.
func TestPrefetcherSplitsAtResidentChunks(t *testing.T) {
	const nchunks, chunkLen = 8, 256
	col, fs, mgr := prefetchFixture(t, nchunks, chunkLen)

	// Demand-load the middle chunk first.
	cur := colbm.NewCursor(col)
	v := vector.New(vector.Int64, 1)
	if err := cur.Read(v, 4*chunkLen, 1); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Reads; got != 1 {
		t.Fatalf("setup read count %d", got)
	}

	pf := NewPrefetcher(fs, mgr, 2)
	defer pf.Close()
	pf.Prefetch(col, 0, col.N)
	waitPrefetched(t, pf, nchunks-1)
	// Chunks 0-3 and 5-7: two runs, two reads, plus the setup read.
	if got := fs.Stats().Reads; got != 3 {
		t.Errorf("store reads %d, want 3 (setup + two split runs)", got)
	}
}

// TestPrefetchConcurrentWithDemandReads races cursors against the
// prefetcher over the same column under -race: a cursor reaching a claimed
// chunk must wait on the batched fetch and share it, and every value must
// come out intact.
func TestPrefetchConcurrentWithDemandReads(t *testing.T) {
	const nchunks, chunkLen = 32, 256
	col, fs, mgr := prefetchFixture(t, nchunks, chunkLen)
	pf := NewPrefetcher(fs, mgr, 2)
	defer pf.Close()

	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := colbm.NewCursor(col)
			v := vector.New(vector.Int64, chunkLen)
			for start := 0; start < col.N; start += chunkLen {
				if err := cur.Read(v, start, chunkLen); err != nil {
					t.Error(err)
					return
				}
				for i, got := range v.I64 {
					if want := int64((start + i) % 251); got != want {
						t.Errorf("row %d: %d != %d", start+i, got, want)
						return
					}
				}
			}
		}()
	}
	pf.Prefetch(col, 0, col.N)
	wg.Wait()
	// However the race resolved, no chunk was fetched twice: claims plus
	// singleflight cap the store reads at one per chunk.
	if got := fs.Stats().Reads; got > nchunks {
		t.Errorf("%d store reads for %d chunks: duplicate fetches slipped through", got, nchunks)
	}
}

// TestPrefetcherWindowedClaims pins the pacing satellite: a range longer
// than the claim window is NOT claimed up front — the first window claims
// synchronously (preserving the no-duplicate-read guarantee for imminent
// chunks) and the tail claims window by window as fetches land, so the
// read-ahead never holds more than a window of claims ahead of the scan.
func TestPrefetcherWindowedClaims(t *testing.T) {
	const nchunks, chunkLen, window = 24, 256, 4
	col, fs, mgr := prefetchFixture(t, nchunks, chunkLen)
	pf := NewPrefetcher(fs, mgr, 1)
	pf.SetWindow(window)
	defer pf.Close()

	pf.Prefetch(col, 0, col.N)
	waitPrefetched(t, pf, nchunks)
	st := pf.Stats()
	if want := int64(nchunks / window); st.Windows != want {
		t.Errorf("claim windows %d, want %d (range split into window-sized steps)", st.Windows, want)
	}
	// Each window coalesces into at most one contiguous read — and usually
	// far fewer than one per window, because a window's page-aligned span
	// covers neighboring chunks that are admitted for free, so later
	// windows find their chunks already resident and read nothing.
	prefetchReads := fs.Stats().Reads
	if want := int64(nchunks / window); prefetchReads > want {
		t.Errorf("store reads %d, want at most %d (one per window)", prefetchReads, want)
	}
	// Everything is resident and correct.
	cur := colbm.NewCursor(col)
	v := vector.New(vector.Int64, chunkLen)
	for start := 0; start < col.N; start += chunkLen {
		if err := cur.Read(v, start, chunkLen); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Stats().Reads; got != prefetchReads {
		t.Errorf("cursor re-read prefetched data: %d store reads total, %d during prefetch", got, prefetchReads)
	}
}

// TestPrefetcherStopsAtBudget: a tail that outruns the buffer manager's
// byte budget stops instead of evicting resident data to read further
// ahead — the memory-pressure bound the windowed claim exists for. The
// cursor then demand-pages the remainder; nothing is read twice.
func TestPrefetcherStopsAtBudget(t *testing.T) {
	const nchunks, chunkLen, window = 32, 256, 2
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	// Budget: roughly a third of the column; the tail must stop early.
	mgr := colbm.NewManager(0)
	b := colbm.NewBuilder("T", fs, mgr, []colbm.ColumnSpec{
		{Name: "v", Type: vector.Int64, Enc: colbm.EncPFOR, ChunkLen: chunkLen},
	})
	vals := make([]int64, nchunks*chunkLen)
	for i := range vals {
		vals[i] = int64(i % 251)
	}
	b.SetInt64("v", vals)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	col, err := tab.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	var colBytes int64
	for ci := 0; ci < col.NumChunks(); ci++ {
		colBytes += int64(col.Chunk(ci).Size)
	}
	mgr = colbm.NewManager(colBytes / 3)
	tab2, err := colbm.OpenTable(tab.Stored(), fs, mgr)
	if err != nil {
		t.Fatal(err)
	}
	col2, err := tab2.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()

	pf := NewPrefetcher(fs, mgr, 1)
	pf.SetWindow(window)
	defer pf.Close()
	pf.Prefetch(col2, 0, col2.N)
	deadline := time.Now().Add(10 * time.Second)
	for pf.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tail never stopped at the budget: %+v", pf.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := pf.Stats()
	if st.Chunks >= nchunks {
		t.Errorf("prefetch admitted all %d chunks under a third-size budget: %+v", st.Chunks, st)
	}
	if ev := mgr.Stats().Evictions; ev != 0 {
		t.Errorf("read-ahead evicted %d resident chunks; the headroom guard should stop first", ev)
	}

	// The scan still sees every value; the remainder demand-pages.
	cur := colbm.NewCursor(col2)
	v := vector.New(vector.Int64, chunkLen)
	for start := 0; start < col2.N; start += chunkLen {
		if err := cur.Read(v, start, chunkLen); err != nil {
			t.Fatal(err)
		}
		for i, got := range v.I64 {
			if want := int64((start + i) % 251); got != want {
				t.Fatalf("row %d: %d != %d", start+i, got, want)
			}
		}
	}
}
