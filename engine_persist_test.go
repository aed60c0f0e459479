package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/storage"
)

// Tests for the persistent storage path of the public API: WithStorageDir,
// OpenDir, SaveIndex/LoadIndex, and the guarantee that a persisted engine
// answers exactly like an in-memory one.

func smallCollection() *Collection {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs = 2000
	cfg.Vocab = 3000
	cfg.AvgDocLen = 80
	cfg.NumTopics = 20
	return GenerateCollection(cfg)
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

	memEng, err := Open(coll)
	if err != nil {
		t.Fatal(err)
	}
	defer memEng.Close()
	if err := SaveIndex(dir, memEng.Index()); err != nil {
		t.Fatal(err)
	}

	// OpenDir needs only the directory; no corpus parsing anywhere.
	eng, err := OpenDir(dir, WithBufferPoolBytes(32<<20), WithSearchers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range coll.PrecisionQueries(3, 23) {
		want, err := memEng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10, Strategy: BM25TCMQ8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10, Strategy: BM25TCMQ8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("query %v: persisted engine diverged from in-memory", q.Terms)
		}
	}
	if hr := eng.Index().Cache.Stats().HitRate(); hr <= 0 {
		t.Errorf("buffer manager saw no traffic (hit rate %v)", hr)
	}

	// Every construction-shaping option is rejected.
	ic := DefaultIndexConfig()
	ic.Disk.SeekLatency *= 2
	if _, err := OpenDir(dir, WithIndexConfig(ic)); err == nil {
		t.Error("OpenDir accepted WithIndexConfig")
	}
	if _, err := OpenDir(dir, WithStorageDir(dir)); err == nil {
		t.Error("OpenDir accepted WithStorageDir")
	}
	// And a bad directory fails loudly.
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Error("OpenDir accepted a directory without an index")
	}
}

// TestPersistedOnlyOptionsRefusedInMemory: every option that needs a
// persisted index is a configuration error without one, at both in-memory
// entry points alike, and set together they are reported together.
func TestPersistedOnlyOptionsRefusedInMemory(t *testing.T) {
	coll := smallCollection()
	ix, err := BuildIndex(coll, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	persistedOnly := map[string]Option{
		"WithAutoMerge": WithAutoMerge(2),
	}
	var all []Option
	for name, opt := range persistedOnly {
		all = append(all, opt)
		_, err := Open(coll, opt)
		refused(t, err, name)
		_, err = OpenIndex(ix, opt)
		refused(t, err, name)
	}
	_, err = OpenIndex(ix, all...)
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != len(all) {
		t.Errorf("OpenIndex with every persisted-only option: %v, want %d errors", err, len(all))
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
