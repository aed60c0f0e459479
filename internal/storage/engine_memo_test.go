package storage_test

import (
	"context"
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
