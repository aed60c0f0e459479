package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
)

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := make([]byte, 3*readAlign+517) // deliberately unaligned length
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := colbm.WriteBlob(fs, "TD.docidc", data); err != nil {
		t.Fatal(err)
	}
	if got := fs.Size("TD.docidc"); got != len(data) {
		t.Errorf("Size = %d, want %d", got, len(data))
	}
	if got := fs.TotalSize(); got != int64(len(data)) {
		t.Errorf("TotalSize = %d, want %d", got, len(data))
	}

	// Unaligned offsets and sizes: the store aligns internally, the caller
	// sees exactly the requested range.
	for _, r := range [][2]int{{0, len(data)}, {1, 100}, {readAlign - 1, 2}, {3 * readAlign, 517}, {517, 0}} {
		got, err := fs.Read("TD.docidc", r[0], r[1])
		if err != nil {
			t.Fatalf("read [%d,%d): %v", r[0], r[0]+r[1], err)
		}
		if !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("read [%d,%d) mismatch", r[0], r[0]+r[1])
		}
	}

	// The returned buffer is private.
	got, err := fs.Read("TD.docidc", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	got[0] ^= 0xff
	again, _ := fs.Read("TD.docidc", 0, 8)
	if again[0] != data[0] {
		t.Error("Read aliases shared state")
	}

	// Errors: missing blob, out-of-range read.
	if _, err := fs.Read("missing", 0, 1); err == nil {
		t.Error("read of missing blob succeeded")
	}
	if _, err := fs.Read("TD.docidc", len(data)-1, 2); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if _, err := fs.Read("TD.docidc", -1, 2); err == nil {
		t.Error("negative offset accepted")
	}

	st := fs.Stats()
	if st.Reads == 0 || st.BytesRead == 0 {
		t.Errorf("stats not counted: %+v", st)
	}
	if fs.Simulated() {
		t.Error("FileStore claims to be simulated")
	}
	fs.ResetStats()
	if fs.Stats().Reads != 0 {
		t.Error("ResetStats did not reset")
	}
}

func TestFileStoreAlignedRequests(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	data := make([]byte, 4*readAlign)
	if err := colbm.WriteBlob(fs, "b", data); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	// A 1-byte logical read still transfers one aligned page.
	if _, err := fs.Read("b", readAlign+5, 1); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.BytesRead != readAlign {
		t.Errorf("1-byte read transferred %d bytes, want one aligned page (%d)", st.BytesRead, readAlign)
	}
}

func buildSmallIndex(t *testing.T) (*corpus.Collection, *ir.Index) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2500
	cfg.Vocab = 3000
	cfg.AvgDocLen = 80
	cfg.NumTopics = 20
	c := corpus.Generate(cfg)
	bc := ir.DefaultBuildConfig()
	bc.ChunkLen = 4096 // many chunks, so budgets below force real eviction
	ix, err := ir.Build(c, bc)
	if err != nil {
		t.Fatal(err)
	}
	return c, ix
}

// saveIndex writes ix as a one-segment index directory and returns the
// segment's own directory (where its MANIFEST.json and .col files live).
func saveIndex(t *testing.T, dir string, ix *ir.Index) string {
	t.Helper()
	if err := WriteSegmentedIndex(dir, []*ir.Index{ix}); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, segDirPrefix+"000001")
}

// openSole opens a one-segment directory and returns its segment; closing
// the segment releases everything the open acquired.
func openSole(dir string, budget int64) (*ir.Index, error) {
	snap, err := OpenSegmented(dir, colbm.NewManager(budget))
	if err != nil {
		return nil, err
	}
	return snap.Primary(), nil
}

// TestIndexRoundTripIdenticalTopK is the acceptance check of the on-disk
// format: opening what was written must return byte-identical rankings —
// same docids, same names, same scores, same order — for every strategy,
// both with an unbounded buffer manager and with one small enough to force
// eviction mid-query. It holds for a directory this build writes and for a
// pre-segment one (top-level MANIFEST.json, no SEGMENTS.json), which reads
// as one External segment.
func TestIndexRoundTripIdenticalTopK(t *testing.T) {
	c, ix := buildSmallIndex(t)
	queries := append(c.PrecisionQueries(5, 11), c.EfficiencyQueries(15, 12)...)
	mem := ir.NewSearcher(ix, 0)

	for name, write := range map[string]func(dir string){
		"current": func(dir string) { saveIndex(t, dir, ix) },
		"legacy": func(dir string) {
			if _, err := writeSegment(dir, ix); err != nil {
				t.Fatal(err)
			}
		},
	} {
		dir := t.TempDir()
		write(dir)
		if sm, err := ReadSegments(dir); err != nil || len(sm.Segments) != 1 || sm.External != (name == "legacy") {
			t.Fatalf("%s: ReadSegments = %+v, %v; want one segment, External only for legacy", name, sm, err)
		}
		for _, budget := range []int64{0, 64 << 10} {
			pix, err := openSole(dir, budget)
			if err != nil {
				t.Fatal(err)
			}
			disk := ir.NewSearcher(pix, 0)
			for _, strat := range ir.AllStrategies {
				for _, q := range queries {
					want, _, err := mem.Search(q.Terms, 20, strat)
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := disk.Search(q.Terms, 20, strat)
					if err != nil {
						t.Fatalf("%s budget %d, %v %q: %v", name, budget, strat, q.Terms, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s budget %d, %v %q: persisted top-k diverged\n got %v\nwant %v",
							name, budget, strat, q.Terms, got, want)
					}
					if stats.SimIO != 0 {
						t.Fatalf("persisted search charged simulated I/O: %v", stats.SimIO)
					}
				}
			}
			if budget > 0 {
				if st := pix.Cache.Stats(); st.Evictions == 0 {
					t.Errorf("%s budget %d never evicted; the eviction path went untested", name, budget)
				}
			}
			pix.Close()
		}
	}
}

// TestPersistedWarmHitRate checks the acceptance bar directly: repeating a
// TREC query batch against a persisted index with an adequate budget must
// serve well over 90% of chunk lookups from the buffer manager.
func TestPersistedWarmHitRate(t *testing.T) {
	c, ix := buildSmallIndex(t)
	dir := t.TempDir()
	saveIndex(t, dir, ix)
	pix, err := openSole(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pix.Close()
	s := ir.NewSearcher(pix, 0)
	queries := c.EfficiencyQueries(100, 13)

	run := func() {
		for _, q := range queries {
			if _, _, err := s.Search(q.Terms, 20, ir.BM25TCMQ8); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // cold: populates the manager
	pix.Cache.ResetStats()
	pix.Store.ResetStats()
	run() // warm repeat of the same batch
	run()
	st := pix.Cache.Stats()
	if hr := st.HitRate(); hr <= 0.9 {
		t.Errorf("warm hit rate %.3f, want > 0.9 (%+v)", hr, st)
	}
	if reads := pix.Store.Stats().Reads; reads != 0 {
		t.Errorf("warm batches did %d file reads, want 0 under an unbounded budget", reads)
	}
}

func TestOpenSegmentLazyAndValidating(t *testing.T) {
	_, ix := buildSmallIndex(t)
	dir := t.TempDir()
	segDir := saveIndex(t, dir, ix)

	// Lazy: opening reads no column data through the index's store (the
	// dictionary T is decoded from its own reads, here not at all: the
	// save handed its manifest over).
	pix, err := openSole(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reads := pix.Store.Stats().Reads; reads != 0 {
		t.Errorf("open did %d column reads, want 0; the format is supposed to load lazily", reads)
	}
	if pix.NumDocs() != ix.NumDocs() || pix.NumPostings() != ix.NumPostings() {
		t.Errorf("restored shape: %d docs / %d postings, want %d / %d",
			pix.NumDocs(), pix.NumPostings(), ix.NumDocs(), ix.NumPostings())
	}
	pix.Close()

	// Not an index dir: the error says what is absent, and matches
	// os.ErrNotExist so callers can tell "build it" from "it is broken".
	if _, err := OpenSegmented(t.TempDir(), colbm.NewManager(0)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("OpenSegmented on an empty directory: %v, want os.ErrNotExist", err)
	}
	// Saving over a directory that already serves an index is refused.
	if err := WriteSegmentedIndex(dir, []*ir.Index{ix}); err == nil {
		t.Error("WriteSegmentedIndex overwrote an existing index directory")
	}

	// Wrong version must be rejected loudly.
	raw, err := os.ReadFile(filepath.Join(segDir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Version = FormatVersion + 1
	bumped, _ := json.Marshal(&m)
	if err := os.WriteFile(filepath.Join(segDir, ManifestName), bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, colbm.NewManager(0)); err == nil {
		t.Error("open accepted a future segment format version")
	}
	// Restore, then truncate a column file: size check must catch it.
	if err := os.WriteFile(filepath.Join(segDir, ManifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	col := filepath.Join(segDir, m.TD.Columns[0].Blob+blobExt)
	if err := os.Truncate(col, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, colbm.NewManager(0)); err == nil {
		t.Error("open accepted a truncated column file")
	}
}

// TestOpenNamesCorruptFiles is the corruption-injection suite: a
// truncated, missing, or stray .col file in a segment directory must fail
// the open *eagerly* with an error naming the offending file — never
// lazily in the middle of some later query.
func TestOpenNamesCorruptFiles(t *testing.T) {
	_, ix := buildSmallIndex(t)
	write := func(t *testing.T) (dir, segDir string, m *Manifest) {
		t.Helper()
		dir = t.TempDir()
		segDir = saveIndex(t, dir, ix)
		m, err := readManifest(dir, filepath.Base(segDir))
		if err != nil {
			t.Fatal(err)
		}
		return dir, segDir, m
	}

	t.Run("truncated", func(t *testing.T) {
		dir, segDir, m := write(t)
		victim := m.TD.Columns[1].Blob + blobExt
		if err := os.Truncate(filepath.Join(segDir, victim), 7); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegmented(dir, colbm.NewManager(0))
		if err == nil || !strings.Contains(err.Error(), victim) {
			t.Errorf("truncated column error does not name %q: %v", victim, err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		dir, segDir, m := write(t)
		victim := m.D.Columns[0].Blob + blobExt
		if err := os.Remove(filepath.Join(segDir, victim)); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegmented(dir, colbm.NewManager(0))
		if err == nil || !strings.Contains(err.Error(), victim) {
			t.Errorf("missing column error does not name %q: %v", victim, err)
		}
	})
	t.Run("stray", func(t *testing.T) {
		dir, segDir, _ := write(t)
		stray := "leftover.partial" + blobExt
		if err := os.WriteFile(filepath.Join(segDir, stray), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegmented(dir, colbm.NewManager(0))
		if err == nil || !strings.Contains(err.Error(), stray) {
			t.Errorf("stray column error does not name %q: %v", stray, err)
		}
	})
	t.Run("clean", func(t *testing.T) {
		dir, _, _ := write(t)
		snap, err := OpenSegmented(dir, colbm.NewManager(0))
		if err != nil {
			t.Fatalf("clean directory rejected: %v", err)
		}
		snap.Close()
	})
}
