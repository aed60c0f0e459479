package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/storage"
)

// Tests for the persistent storage path of the public API: WithStorageDir,
// OpenDir, SaveIndex/LoadIndex, and the guarantee that a persisted engine
// answers exactly like the ir.Build reference over the same documents.

func smallCollection() *Collection {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs = 2000
	cfg.Vocab = 3000
	cfg.AvgDocLen = 80
	cfg.NumTopics = 20
	return GenerateCollection(cfg)
}

// TestOpenWithoutDirIsAnOrdinaryEngine: Open without WithStorageDir builds
// into a directory the engine owns, so it appends, merges and ranks like
// any other engine — exactly as the ir.Build reference over the same
// documents — and Close leaves no directory behind.
func TestOpenWithoutDirIsAnOrdinaryEngine(t *testing.T) {
	coll := segColl(t)
	ctx := context.Background()
	total := len(coll.DocLens)
	first, err := coll.Slice(0, total/4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(first, WithAutoMerge(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := eng.core.Dir()
	for i := 1; i < 4; i++ {
		docs, err := coll.Docs(i*total/4, (i+1)*total/4)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Add(ctx, docs); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st := eng.SegmentStats(); st.Merges > 0 && st.Segments <= 2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("merger never bounded the engine's directory: %+v", st)
		}
	}
	requireReferenceRanking(t, eng, coll,
		append(coll.PrecisionQueries(4, 51), coll.EfficiencyQueries(4, 52)...),
		[]Strategy{BM25, BM25T, BM25TC, BM25TCM, BM25TCMQ8})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("engine directory %q survived Close (stat: %v)", dir, err)
	}
}

func TestEngineWithStorageDir(t *testing.T) {
	coll := smallCollection()
	dir := filepath.Join(t.TempDir(), "ix")
	ctx := context.Background()
	q := coll.PrecisionQueries(1, 21)[0]

	// First Open: builds, persists, serves the persisted form.
	eng, err := Open(coll, WithStorageDir(dir), WithBufferPoolBytes(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.ReadSegments(dir); err != nil {
		t.Fatal("Open(WithStorageDir) left no index directory behind")
	}
	if eng.Index().Store.Simulated() {
		t.Error("storage-dir engine serves from a simulated store")
	}
	want, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Second Open with the same dir: must reuse the persisted index, not
	// rebuild — detectable because the manifest is not rewritten.
	before, err := os.Stat(filepath.Join(dir, storage.SegmentsManifestName))
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(coll, WithStorageDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	after, err := os.Stat(filepath.Join(dir, storage.SegmentsManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Error("second Open rewrote the index instead of reusing it")
	}
	got, err := eng2.Search(ctx, SearchRequest{Terms: q.Terms, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Errorf("reopened engine ranking diverged:\n got %v\nwant %v", got.Hits, want.Hits)
	}
}

func TestOpenDirServesWithoutCollection(t *testing.T) {
	coll := smallCollection()
	dir := filepath.Join(t.TempDir(), "ix")
	ctx := context.Background()

	ref, err := BuildIndex(coll, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(dir, ref); err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(ref, 0)

	// OpenDir needs only the directory; no corpus parsing anywhere.
	eng, err := OpenDir(dir, WithBufferPoolBytes(32<<20), WithSearchers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range coll.PrecisionQueries(3, 23) {
		want, _, err := s.Search(q.Terms, 10, BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10, Strategy: BM25TCMQ8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want) {
			t.Errorf("query %v: persisted engine diverged from the ir.Build reference", q.Terms)
		}
	}
	if hr := eng.Index().Cache.Stats().HitRate(); hr <= 0 {
		t.Errorf("buffer manager saw no traffic (hit rate %v)", hr)
	}

	// The directory is OpenDir's argument, not an option.
	if _, err := OpenDir(dir, WithStorageDir(dir)); err == nil {
		t.Error("OpenDir accepted WithStorageDir")
	}
	// And a bad directory fails loudly.
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Error("OpenDir accepted a directory without an index")
	}
}

func TestLoadIndexRoundTrip(t *testing.T) {
	coll := smallCollection()
	ix, err := BuildIndex(coll, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ix")
	if err := SaveIndex(dir, ix); err != nil {
		t.Fatal(err)
	}
	lx, err := LoadIndex(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lx.Store.Close()
	if lx.NumDocs() != ix.NumDocs() || lx.NumPostings() != ix.NumPostings() || len(lx.Terms) != len(ix.Terms) {
		t.Errorf("loaded index shape mismatch")
	}
	// Compression ratios — physical layout — survive the round trip.
	for _, col := range []string{ir.ColDocIDC, ir.ColTFC} {
		a, err := ix.BitsPerPosting(col)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lx.BitsPerPosting(col)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: bits/posting %v -> %v across persistence", col, a, b)
		}
	}
}
