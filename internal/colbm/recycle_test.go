package colbm_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/colbm"
	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/vector"
)

// fileTable is a table persisted to a FileStore, so that its cursors' misses
// read into the aligned, recyclable buffers of the real read path.
type fileTable struct {
	st    colbm.StoredTable
	store *storage.FileStore
}

// The columns of the file-backed tests: posting docids and tfs as the index
// stores them, 8-bit codes with exceptions, and short names.
var (
	docidSpec = colbm.ColumnSpec{Name: "docid", Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8}
	tfSpec    = colbm.ColumnSpec{Name: "tf", Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8}
	nameSpec  = colbm.ColumnSpec{Name: "name", Type: vector.Str}
)

// newFileTable writes rows rows, chunkLen to a chunk, of the given columns to
// a FileStore in a test directory. A column named docid holds ascending
// docids with gaps past 8 bits here and there, any other integer column tfs
// with rare outliers, and a string column names of 1 to 4 letters.
func newFileTable(tb testing.TB, rows, chunkLen int, specs ...colbm.ColumnSpec) fileTable {
	tb.Helper()
	fs, err := storage.NewFileStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fs.Close() })
	rng := rand.New(rand.NewSource(int64(rows)))
	docid, tf, names := make([]int64, rows), make([]int64, rows), make([]string, rows)
	for i, d := 0, int64(0); i < rows; i++ {
		d += 1 + rng.Int63n(200)
		if rng.Intn(100) == 0 {
			d += 1000
		}
		docid[i], tf[i] = d, 1+rng.Int63n(20)
		if rng.Intn(1000) == 0 {
			tf[i] = 300 + rng.Int63n(1000)
		}
		names[i] = strings.Repeat(string(rune('a'+i%26)), 1+i%4)
	}
	for i := range specs {
		specs[i].ChunkLen = chunkLen
	}
	b := colbm.NewBuilder("t", fs, colbm.NewManager(0), specs)
	for _, s := range specs {
		switch {
		case s.Type == vector.Str:
			b.AppendStr(s.Name, names...)
		case s.Name == "docid":
			b.SetInt64(s.Name, docid)
		default:
			b.SetInt64(s.Name, tf)
		}
	}
	tab, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return fileTable{st: tab.Stored(), store: fs}
}

// open attaches the table to a chunk cache.
func (ft fileTable) open(tb testing.TB, cache colbm.ChunkCache) *colbm.Table {
	tb.Helper()
	tab, err := colbm.OpenTable(ft.st, ft.store, cache)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// maxChunk returns the largest Size a chunk of the table is charged: its
// stored bytes, plus the offsets of a string chunk.
func (ft fileTable) maxChunk() int64 {
	var most int64
	for _, c := range ft.st.Columns {
		for _, ch := range c.Chunks {
			size := int64(ch.Size)
			if c.Spec.Type == vector.Str {
				size += 4 * int64(ch.N+1)
			}
			most = max(most, size)
		}
	}
	return most
}

// readAll reads a whole column through a fresh cursor.
func readAll(tb testing.TB, tab *colbm.Table, col string) *vector.Vector {
	tb.Helper()
	c := tab.MustColumn(col)
	v := vector.New(c.Spec.Type, c.N)
	if err := colbm.NewCursor(c).Read(v, 0, c.N); err != nil {
		tb.Fatal(err)
	}
	return v
}

// Four goroutines read random windows of a docid, a tf and a string column
// through a manager a few chunks large, whose free list (a quarter of the
// budget) holds one or two read buffers. Every buffer the manager recycles is
// poisoned (TestMain), so a decode or copy out of a chunk whose buffer went
// back to the free list while it was still pinned would differ from what an
// unbounded manager — which never recycles — reads.
func TestRecycledBuffersNeverReadWhilePinned(t *testing.T) {
	const rows, chunkLen = 48 * 1024, 4096
	cols := []string{"docid", "tf", "name"}
	ft := newFileTable(t, rows, chunkLen, docidSpec, tfSpec, nameSpec)
	want := map[string]*vector.Vector{}
	whole := ft.open(t, colbm.NewManager(0))
	for _, col := range cols {
		want[col] = readAll(t, whole, col)
	}

	pool := colbm.NewManager(6 * ft.maxChunk())
	tab := ft.open(t, pool)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				for _, col := range cols {
					n := 1 + rng.Intn(1024)
					start := rng.Intn(rows - n + 1)
					c := tab.MustColumn(col)
					got := vector.New(c.Spec.Type, n)
					if err := colbm.NewCursor(c).Read(got, start, n); err != nil {
						t.Error(err)
						return
					}
					w := want[col]
					if !reflect.DeepEqual(got.I64, sliceOr(w.I64, start, n)) || !reflect.DeepEqual(got.S, sliceOr(w.S, start, n)) {
						t.Errorf("%s [%d,%d) differs from the unbounded manager's read", col, start, start+n)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := pool.Stats(); st.Evictions == 0 || st.Recycled == 0 {
		t.Fatalf("nothing was recycled, so nothing was tested: %+v", st)
	}
}

// sliceOr returns s[start:start+n], or nil for a nil s.
func sliceOr[T any](s []T, start, n int) []T {
	if s == nil {
		return nil
	}
	return s[start : start+n]
}

// A chunk handed to a GetChunk caller is never recycled, even one a cursor's
// miss read into a recyclable buffer: it keeps its bytes after it is evicted
// and after 50 more misses have recycled other buffers.
func TestGetChunkKeepsItsBytesAfterEviction(t *testing.T) {
	const rows, chunkLen = 8 * 16384, 16384
	ft := newFileTable(t, rows, chunkLen, docidSpec, tfSpec)
	pool := colbm.NewManager(8 * ft.maxChunk())
	tab := ft.open(t, pool)
	docid, tf := tab.MustColumn("docid"), tab.MustColumn("tf")
	v := vector.New(vector.Int64, 1)
	read := func(col *colbm.Column, ci int) {
		t.Helper()
		if err := colbm.NewCursor(col).Read(v, ci*chunkLen, 1); err != nil {
			t.Fatal(err)
		}
	}
	read(docid, 0)
	key := colbm.ChunkKey(docid.BlobName(), 0)
	ch, err := pool.GetChunk(key, func() (*colbm.CachedChunk, error) {
		return nil, errors.New("chunk 0 is not resident after the cursor's read")
	})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() []int64 {
		out := make([]int64, ch.Block.N)
		if err := compress.NewDecoder(ch.Block.N).Decode(ch.Block, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := decode()

	// Each chunk read twice, so that every resident frame carries its CLOCK
	// reference bit when the first eviction comes: the hand clears them all,
	// wraps, and evicts the oldest frame, chunk 0.
	for i := 0; pool.Stats().Evictions == 0; i++ { // 15 chunks do not fit in 8
		col, ci := tf, i/2
		if i%2 == 1 {
			col, ci = docid, 1+i/2
		}
		read(col, ci)
		read(col, ci)
	}
	if _, err := pool.GetChunk(key, func() (*colbm.CachedChunk, error) { return nil, errEvicted }); err != errEvicted {
		t.Fatalf("chunk 0 still resident after the first eviction (%v): %+v", err, pool.Stats())
	}
	st0 := pool.Stats()
	for i := 0; pool.Stats().Misses < st0.Misses+50; i++ {
		read([]*colbm.Column{docid, tf}[i%2], 1+i/2%(rows/chunkLen-1))
	}
	if st := pool.Stats(); st.Recycled == st0.Recycled {
		t.Fatalf("50 misses recycled no buffer: %+v", st)
	}
	if !reflect.DeepEqual(decode(), before) {
		t.Fatal("a chunk GetChunk returned changed after its eviction: its buffer was recycled")
	}
}

var errEvicted = errors.New("evicted")

// missColumn persists an integer column of 16 chunks of 16 Ki values and
// opens it under a manager holding 8 of them, so that a cursor cycling
// through the chunks in order misses on every one, each miss evicting the
// oldest. Its codes are 16 bits wide: a parse copies the entry points (8
// bytes per 128 values) and at 8 bits they alone are 6 % of a chunk.
func missColumn(tb testing.TB) (*colbm.Column, *colbm.Manager, int64) {
	const chunkLen = 16 * 1024
	spec := tfSpec
	spec.Bits = 16
	ft := newFileTable(tb, 16*chunkLen, chunkLen, spec)
	pool := colbm.NewManager(8 * ft.maxChunk())
	return ft.open(tb, pool).MustColumn(spec.Name), pool, ft.maxChunk()
}

// missCycle reads one value from each of n chunks in turn, starting after
// chunk *next.
func missCycle(tb testing.TB, cur *colbm.Cursor, v *vector.Vector, col *colbm.Column, next *int, n int) {
	for i := 0; i < n; i++ {
		*next = (*next + 1) % col.NumChunks()
		if err := cur.Read(v, *next*col.Chunk(0).N, 1); err != nil {
			tb.Fatal(err)
		}
	}
}

// Once the free list is warm, a miss reads into a recycled buffer: what it
// allocates — the parsed chunk's header and entry points — is under a tenth
// of the chunk's bytes.
func TestCursorMissReusesBuffers(t *testing.T) {
	col, pool, chunkBytes := missColumn(t)
	cur, v := colbm.NewCursor(col), vector.New(vector.Int64, 1)
	next := 0
	missCycle(t, cur, v, col, &next, 3*col.NumChunks()) // warm the free list
	const misses = 64
	st0 := pool.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	missCycle(t, cur, v, col, &next, misses)
	runtime.ReadMemStats(&m1)
	st := pool.Stats()
	if st.Misses-st0.Misses != misses {
		t.Fatalf("%d of %d reads missed: the cycle does not defeat the cache", st.Misses-st0.Misses, misses)
	}
	perMiss := int64(m1.TotalAlloc-m0.TotalAlloc) / misses
	if perMiss*10 >= chunkBytes {
		t.Errorf("a miss allocates %d bytes, ≥ 10%% of a %d-byte chunk (%d of %d misses recycled)",
			perMiss, chunkBytes, st.Recycled-st0.Recycled, misses)
	}
}

// BenchmarkCursorMiss is the cost of a chunk miss on the file-backed read
// path: the positioned read, the parse, the admission and the eviction of
// the oldest chunk, whose buffer the next miss reads into.
func BenchmarkCursorMiss(b *testing.B) {
	col, _, _ := missColumn(b)
	cur, v := colbm.NewCursor(col), vector.New(vector.Int64, 1)
	next := 0
	missCycle(b, cur, v, col, &next, 2*col.NumChunks())
	b.ReportAllocs()
	b.ResetTimer()
	missCycle(b, cur, v, col, &next, b.N)
}
