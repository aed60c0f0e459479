package storage_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/storage"
)

// TestEngineDecodesOnlyNewManifests pins what a serving engine pays in
// manifest decodes: with N segments held open by its generation, one Add
// and one background merge decode nothing — the segments they write are
// handed to the memo by their writers, and every other read is served by
// the manifests the serving generation holds. Close releases them all.
func TestEngineDecodesOnlyNewManifests(t *testing.T) {
	ctx := context.Background()
	cfg := repro.DefaultCollectionConfig()
	cfg.NumDocs = 1500
	cfg.Vocab = 2400
	cfg.AvgDocLen = 64
	cfg.NumTopics = 15
	coll := repro.GenerateCollection(cfg)
	batch := func(i int) []repro.Doc {
		t.Helper()
		docs, err := coll.Docs(i*300, (i+1)*300)
		if err != nil {
			t.Fatal(err)
		}
		return docs
	}
	first, err := coll.Slice(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segix")

	eng, err := repro.Open(first, repro.WithStorageDir(dir), repro.WithSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if err := eng.Add(ctx, batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := storage.ManifestDecodes()
	if err := eng.Add(ctx, batch(3)); err != nil {
		t.Fatal(err)
	}
	if got := storage.ManifestDecodes() - before; got != 0 {
		t.Errorf("Add onto 3 held segments decoded %d manifests, want 0", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if n := storage.MemoEntries(dir); n != 0 {
		t.Errorf("%d manifests still memoized after Engine.Close, want 0", n)
	}

	// Four segments under a bound of four: the fifth (one Add) triggers
	// exactly one two-segment merge.
	eng, err = repro.OpenDir(dir, repro.WithAutoMerge(4), repro.WithSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before = storage.ManifestDecodes()
	if err := eng.Add(ctx, batch(4)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for eng.SegmentStats().Merges == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("merger never ran: %+v", eng.SegmentStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := storage.ManifestDecodes() - before; got != 0 {
		t.Errorf("Add + merge onto 4 held segments decoded %d manifests, want 0", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if n := storage.MemoEntries(dir); n != 0 {
		t.Errorf("%d manifests still memoized after Engine.Close, want 0", n)
	}
}

// TestEngineCarriesStatistics pins what an engine's Adds and merges read
// of the directory: the collection statistics are folded once, by the
// first Add, and carried from commit to commit after that — ten Adds
// under WithAutoMerge(4) and the merges they trigger fold nothing more —
// and every later Add reads one pass of the segments' manifests, the
// refresh that opens the generation it committed: a few kilobytes per
// segment, since no manifest holds a dictionary.
func TestEngineCarriesStatistics(t *testing.T) {
	ctx := context.Background()
	cfg := repro.DefaultCollectionConfig()
	cfg.NumDocs = 2000
	cfg.Vocab = 2400
	cfg.AvgDocLen = 64
	cfg.NumTopics = 15
	coll := repro.GenerateCollection(cfg)
	seed, err := coll.Slice(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := repro.Open(seed, repro.WithStorageDir(dir), repro.WithSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, lo := range []int{500, 650} {
		if err := eng.Add(ctx, mustDocs(t, coll, lo, lo+150)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = repro.OpenDir(dir, repro.WithAutoMerge(4), repro.WithSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// settled waits out the merges an Add triggered: a merge is planned
	// only over four segments, and commits down to four.
	settled := func() {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for eng.SegmentStats().Segments > 4 {
			if time.Now().After(deadline) {
				t.Fatalf("merger never settled: %+v", eng.SegmentStats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	folds := storage.StatsFolds()
	for i := 0; i < 10; i++ {
		settled()
		pass, largest, segs := manifestPass(t, dir)
		read := storage.ManifestBytesRead()
		lo := 800 + 100*i
		if err := eng.Add(ctx, mustDocs(t, coll, lo, lo+100)); err != nil {
			t.Fatal(err)
		}
		read = storage.ManifestBytesRead() - read
		// The refresh reads every segment's manifest: the pass before the
		// Add plus the written segment's, no larger than the largest. The
		// first Add also folds, one more pass.
		if i > 0 && (read < pass || read > pass+largest) {
			t.Errorf("Add %d read %d manifest bytes, want one pass: %d to %d", i, read, pass, pass+largest)
		}
		// A manifest holds no dictionary, only the parameters and the
		// chunk lists of TD, D and T: 2.7 to 2.9 KB per segment here.
		if perSeg := read / int64(segs+1); i > 0 && perSeg > maxManifestBytes {
			t.Errorf("Add %d read %d manifest bytes per segment, want at most %d", i, perSeg, maxManifestBytes)
		}
	}
	settled()
	if merges := eng.SegmentStats().Merges; merges == 0 {
		t.Fatal("ten Adds under WithAutoMerge(4) merged nothing")
	}
	if got := storage.StatsFolds() - folds; got != 1 {
		t.Errorf("ten Adds and %d merges folded the statistics %d times, want 1", eng.SegmentStats().Merges, got)
	}
}

// mustDocs returns documents [lo, hi) of coll as live documents.
func mustDocs(t *testing.T, coll *repro.Collection, lo, hi int) []repro.Doc {
	t.Helper()
	docs, err := coll.Docs(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// maxManifestBytes bounds the MANIFEST.json bytes an Add reads per
// segment of TestEngineCarriesStatistics' directory (segments of 100 to
// 1 000 documents).
const maxManifestBytes = 4 << 10

// manifestPass returns the summed size of the manifests of dir's current
// generation — one read of each — the largest of them, and their count.
func manifestPass(t *testing.T, dir string) (pass, largest int64, n int) {
	t.Helper()
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sm.Names() {
		fi, err := os.Stat(filepath.Join(dir, name, storage.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		pass += fi.Size()
		largest = max(largest, fi.Size())
	}
	return pass, largest, len(sm.Names())
}
