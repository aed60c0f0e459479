package repro

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/ir"
	"repro/internal/storage"
)

// rankedStrategies are the Table 2 runs that score documents.
var rankedStrategies = []Strategy{BM25, BM25T, BM25TC, BM25TCM, BM25TCMQ8}

// flattenToV1 turns a freshly saved one-segment directory into what builds
// before the single layout wrote: the segment's MANIFEST.json and .col
// files at the top level, no SEGMENTS.json.
func flattenToV1(t *testing.T, dir string) {
	t.Helper()
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, sm.Segments[0].Name)
	entries, err := os.ReadDir(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Rename(filepath.Join(seg, e.Name()), filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for _, gone := range []string{seg, filepath.Join(dir, storage.SegmentsManifestName)} {
		if err := os.Remove(gone); err != nil {
			t.Fatal(err)
		}
	}
}

// editManifests rewrites every segment manifest of dir through edit, which
// gets the manifest's top-level JSON fields.
func editManifests(t *testing.T, dir string, edit func(seg string, fields map[string]json.RawMessage)) {
	t.Helper()
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sm.Segments {
		path := filepath.Join(dir, e.Name, storage.ManifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		edit(e.Name, fields)
		if raw, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// stripSkylines rewrites the dictionary T of a one-segment directory with
// every skyline empty: the shape segments had before they carried
// skylines, whose quantization bounds an append reads from the postings
// instead.
func stripSkylines(t *testing.T, dir string) {
	t.Helper()
	ix, err := LoadIndex(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if len(ix.Skylines) == 0 {
		t.Fatal("the segment has no skylines to strip")
	}
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFileStore(filepath.Join(dir, sm.Segments[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ir.BuildDictionary(ix.T.Name, fs, colbm.NewManager(0), ix.Config().ChunkLen, ix.Terms, nil)
	fs.Close()
	if err != nil {
		t.Fatal(err)
	}
	editManifests(t, dir, func(seg string, fields map[string]json.RawMessage) {
		raw, err := json.Marshal(tab.Stored())
		if err != nil {
			t.Fatal(err)
		}
		fields["t"] = raw
	})
}

// addRetiredConfigKeys writes what builds recorded in each segment's build
// configuration before every index stored every column and before a
// segment stopped recording the writing process's pool budget and
// simulated disk: the four column switches and the PoolBytes and Disk
// keys. A freshly written configuration must carry neither of the last
// two.
func addRetiredConfigKeys(t *testing.T, dir string) {
	t.Helper()
	editManifests(t, dir, func(seg string, fields map[string]json.RawMessage) {
		var config map[string]json.RawMessage
		if err := json.Unmarshal(fields["config"], &config); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"PoolBytes", "Disk"} {
			if v, ok := config[key]; ok {
				t.Fatalf("segment %s records %s %s", seg, key, v)
			}
		}
		for _, flag := range []string{"Uncompressed", "Compressed", "Materialized", "Quantized"} {
			config[flag] = json.RawMessage("true")
		}
		config["PoolBytes"] = json.RawMessage("33554432")
		config["Disk"] = json.RawMessage(`{"SeekLatency":4000000,"Bandwidth":400000000}`)
		raw, err := json.Marshal(config)
		if err != nil {
			t.Fatal(err)
		}
		fields["config"] = raw
	})
}

// TestEveryDirectoryShape opens every kind of index directory the system
// has ever written through the one open path and requires DocID+Score
// bit-exact agreement with an in-memory ir.Build, for every ranked and
// boolean strategy. Then the write side: directories that own their
// statistics (SaveIndex, at any chunk length, and Open with WithStorageDir)
// take Engine.Add with no layout option, write its segment and a merge of
// both at the one chunk length, and keep agreeing with a build over the
// grown collection; directories whose statistics live elsewhere (a
// pre-segment directory, a dist partition) refuse with the one typed error.
func TestEveryDirectoryShape(t *testing.T) {
	whole := smallCollection()
	total := len(whole.DocLens)
	seed, err := whole.Slice(0, 3*total/4)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := whole.Docs(3*total/4, total)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Efficiency queries besides precision ones: partitions short of k
	// conjunctive matches where the whole collection is not are what the
	// broker's collection-wide two-pass gate gets right.
	queries := append(whole.PrecisionQueries(6, 61), whole.EfficiencyQueries(40, 62)...)

	reference := func(c *Collection) map[Strategy][][]Result {
		t.Helper()
		ix, err := BuildIndex(c, DefaultIndexConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := ir.NewSearcher(ix, 0)
		want := map[Strategy][][]Result{}
		for _, strat := range AllStrategies {
			for _, q := range queries {
				hits, _, err := s.Search(q.Terms, 10, strat)
				if err != nil {
					t.Fatal(err)
				}
				want[strat] = append(want[strat], hits)
			}
		}
		return want
	}
	agree := func(t *testing.T, want map[Strategy][][]Result, search func([]string, Strategy) ([]Result, error)) {
		t.Helper()
		for _, strat := range AllStrategies {
			for i, q := range queries {
				got, err := search(q.Terms, strat)
				if err != nil {
					t.Fatalf("%v %v: %v", strat, q.Terms, err)
				}
				if !reflect.DeepEqual(got, want[strat][i]) {
					t.Errorf("%v %v diverged from the in-memory build:\n got %v\nwant %v", strat, q.Terms, got, want[strat][i])
				}
			}
		}
	}
	engineSearch := func(eng *Engine) func([]string, Strategy) ([]Result, error) {
		return func(terms []string, strat Strategy) ([]Result, error) {
			resp, err := eng.Search(ctx, SearchRequest{Terms: terms, K: 10, Strategy: strat})
			return resp.Hits, err
		}
	}
	wantSeed, wantWhole := reference(seed), reference(whole)

	saveWith := func(cfg IndexConfig) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			ix, err := BuildIndex(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveIndex(dir, ix); err != nil {
				t.Fatal(err)
			}
			want := cfg.ChunkLen
			if want == 0 {
				want = postingChunkLen
			}
			requireChunkLen(t, &segmentManifests(t, dir)[0], want)
		}
	}
	save := saveWith(DefaultIndexConfig())
	for _, shape := range []struct {
		name     string
		write    func(t *testing.T, dir string)
		writable bool
	}{
		{"v1-top-level-manifest", func(t *testing.T, dir string) { save(t, dir); flattenToV1(t, dir) }, false},
		{"SaveIndex", save, true},
		{"SaveIndex-4096-value-chunks", saveWith(IndexConfig{ChunkLen: 4096}), true},
		{"SaveIndex-without-skylines", func(t *testing.T, dir string) { save(t, dir); stripSkylines(t, dir) }, true},
		{"SaveIndex-with-layout-flags", func(t *testing.T, dir string) { save(t, dir); addRetiredConfigKeys(t, dir) }, true},
		{"Open-WithStorageDir", func(t *testing.T, dir string) {
			eng, err := Open(seed, WithStorageDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}, true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ix")
			shape.write(t, dir)
			eng, err := OpenDir(dir, WithBufferPoolBytes(32<<20))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			agree(t, wantSeed, engineSearch(eng))

			err = eng.Add(ctx, extra)
			if !shape.writable {
				if !errors.Is(err, ErrReadOnly) {
					t.Fatalf("Add on a directory that does not own its statistics: %v, want ErrReadOnly", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := eng.Refresh(ctx); err != nil {
				t.Fatalf("Refresh: %v", err)
			}
			if st := eng.SegmentStats(); st.Segments != 2 || st.Generation != 2 || eng.NumDocs() != total {
				t.Fatalf("after Add: %+v, %d docs; want 2 segments at generation 2, %d docs", st, eng.NumDocs(), total)
			}
			agree(t, wantWhole, engineSearch(eng))
			if _, err := LoadIndex(dir, 0); !errors.Is(err, ErrNotSingleSegment) {
				t.Errorf("LoadIndex on a two-segment directory: %v, want ErrNotSingleSegment", err)
			}
			requireChunkLen(t, &segmentManifests(t, dir)[1], postingChunkLen)

			if merged, err := eng.mergeOnce(1, func() bool { return false }); err != nil || !merged {
				t.Fatalf("merge: %v, %v", merged, err)
			}
			ms := segmentManifests(t, dir)
			if len(ms) != 1 {
				t.Fatalf("%d segments after the merge, want 1", len(ms))
			}
			requireChunkLen(t, &ms[0], postingChunkLen)
			agree(t, wantWhole, engineSearch(eng))
		})
	}

	t.Run("v1-segments-fixture", testFormatV1Cross)

	t.Run("BuildPartitions", func(t *testing.T) {
		dirs, err := BuildPartitions(seed, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cl, err := StartClusterFromDirs(dirs, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		broker, err := cl.NewBroker()
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		agree(t, wantSeed, func(terms []string, strat Strategy) ([]Result, error) {
			hits, _, err := broker.SearchContext(ctx, terms, 10, strat)
			return hits, err
		})
		eng, err := OpenDir(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.Add(ctx, extra); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Add on a global-statistics partition: %v, want ErrReadOnly", err)
		}
	})
}

// segmentManifests decodes the manifest of every segment of dir.
func segmentManifests(t *testing.T, dir string) []storage.Manifest {
	t.Helper()
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []storage.Manifest
	for _, e := range sm.Segments {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name, storage.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m storage.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// rewriteManifest replaces the MANIFEST.json of segment seg of dir with m.
func rewriteManifest(t *testing.T, dir, seg string, m *storage.Manifest) {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, seg, storage.ManifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesAMissingPostingColumn: there is one layout, and any
// strategy may read any TD column, so a segment whose manifest lacks one
// (and whose directory lacks its file) fails the open with an error that
// names the segment and the column, rather than the first query that
// reads it.
func TestOpenRefusesAMissingPostingColumn(t *testing.T) {
	coll := smallCollection()
	docs, err := coll.Docs(0, len(coll.DocLens))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ir.ColDocID32, ir.ColTF32, ir.ColDocIDC, ir.ColTFC, ir.ColScore, ir.ColQScore} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ix")
			if err := AppendSegment(dir, docs); err != nil {
				t.Fatal(err)
			}
			sm, err := storage.ReadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			seg := sm.Segments[0].Name
			m := segmentManifests(t, dir)[0]
			var kept []colbm.StoredColumn
			var blob string
			for _, col := range m.TD.Columns {
				if col.Spec.Name == name {
					blob = col.Blob
				} else {
					kept = append(kept, col)
				}
			}
			if blob == "" {
				t.Fatalf("segment %s has no %s column to drop", seg, name)
			}
			m.TD.Columns = kept
			rewriteManifest(t, dir, seg, &m)
			if err := os.Remove(filepath.Join(dir, seg, blob+".col")); err != nil {
				t.Fatal(err)
			}

			eng, err := OpenDir(dir)
			if err == nil {
				eng.Close()
				t.Fatalf("OpenDir served a segment without its %s column", name)
			}
			if msg := err.Error(); !strings.Contains(msg, seg) || !strings.Contains(msg, strconv.Quote(name)) {
				t.Errorf("the refusal does not name segment %s and column %q: %v", seg, name, err)
			}
		})
	}
}

// postingColumns calls fn for every column of the manifest but the names,
// which keep their own point-lookup chunk length.
func postingColumns(m *storage.Manifest, fn func(col *colbm.StoredColumn)) {
	for _, table := range []*colbm.StoredTable{&m.TD, &m.D} {
		for i := range table.Columns {
			if table.Columns[i].Spec.Name != "name" {
				fn(&table.Columns[i])
			}
		}
	}
}

// postingChunkLen is ir's chunk length when BuildConfig.ChunkLen is 0.
const postingChunkLen = 16 << 10

// requireChunkLen fails the test unless every posting column of the
// manifest records chunk length want.
func requireChunkLen(t *testing.T, m *storage.Manifest, want int) {
	t.Helper()
	postingColumns(m, func(col *colbm.StoredColumn) {
		if col.Spec.ChunkLen != want {
			t.Errorf("%s records chunk length %d, want %d", col.Blob, col.Spec.ChunkLen, want)
		}
	})
}

// TestUnrecordedChunkLengthMeans128Ki: a manifest whose posting columns
// record chunk length 0 was cut into colbm.DefaultChunkLen-value chunks,
// as every directory was before the posting columns took 16 Ki-value
// chunks. Such a directory opens and ranks bit-exactly like a fresh build,
// takes an Engine.Add whose new segment records 16 Ki chunks, and a merge
// rewrites it into 16 Ki chunks only. It is not a shape of
// TestEveryDirectoryShape because its seed must span several 128 Ki chunks,
// more postings than that test's collection holds.
func TestUnrecordedChunkLengthMeans128Ki(t *testing.T) {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen, cfg.NumTopics = 6000, 4000, 90, 25
	whole := GenerateCollection(cfg)
	total := len(whole.DocLens)
	seed, err := whole.Slice(0, 3*total/4)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := whole.Docs(3*total/4, total)
	if err != nil {
		t.Fatal(err)
	}
	if seed.NumPostings() <= colbm.DefaultChunkLen {
		t.Fatalf("seed of %d postings fills one chunk of %d", seed.NumPostings(), colbm.DefaultChunkLen)
	}
	ctx := context.Background()
	queries := whole.EfficiencyQueries(40, 71)
	ranked := func(c *Collection) [][]Result {
		ix, err := BuildIndex(c, DefaultIndexConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := ir.NewSearcher(ix, 0)
		var out [][]Result
		for _, strat := range rankedStrategies {
			for _, q := range queries {
				hits, _, err := s.Search(q.Terms, 20, strat)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, hits)
			}
		}
		return out
	}
	agree := func(t *testing.T, eng *Engine, want [][]Result) {
		t.Helper()
		i := 0
		for _, strat := range rankedStrategies {
			for _, q := range queries {
				resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 20, Strategy: strat})
				if err != nil {
					t.Fatalf("%v %v: %v", strat, q.Terms, err)
				}
				if !reflect.DeepEqual(resp.Hits, want[i]) {
					t.Errorf("%v %v diverged from a fresh build:\n got %v\nwant %v", strat, q.Terms, resp.Hits, want[i])
				}
				i++
			}
		}
	}

	// A directory of 128 Ki chunks whose manifests record 0.
	dir := filepath.Join(t.TempDir(), "ix")
	ic := DefaultIndexConfig()
	ic.ChunkLen = colbm.DefaultChunkLen
	ix, err := BuildIndex(seed, ic)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(dir, ix); err != nil {
		t.Fatal(err)
	}
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := segmentManifests(t, dir)[0]
	m.Config.ChunkLen = 0
	postingColumns(&m, func(col *colbm.StoredColumn) {
		if col.Spec.ChunkLen != colbm.DefaultChunkLen {
			t.Fatalf("column %s built at chunk length %d", col.Spec.Name, col.Spec.ChunkLen)
		}
		col.Spec.ChunkLen = 0
	})
	if len(m.TD.Columns[0].Chunks) < 2 {
		t.Fatalf("column %s has one chunk", m.TD.Columns[0].Spec.Name)
	}
	rewriteManifest(t, dir, sm.Segments[0].Name, &m)

	eng, err := OpenDir(dir, WithBufferPoolBytes(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	agree(t, eng, ranked(seed))

	if err := eng.Add(ctx, extra); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := eng.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	ms := segmentManifests(t, dir)
	if len(ms) != 2 {
		t.Fatalf("%d segments after Add, want 2", len(ms))
	}
	requireChunkLen(t, &ms[0], 0)
	requireChunkLen(t, &ms[1], postingChunkLen)
	wantWhole := ranked(whole)
	agree(t, eng, wantWhole)

	merged, err := eng.mergeOnce(1, func() bool { return false })
	if err != nil || !merged {
		t.Fatalf("merge: %v, %v", merged, err)
	}
	ms = segmentManifests(t, dir)
	if len(ms) != 1 {
		t.Fatalf("%d segments after the merge, want 1", len(ms))
	}
	requireChunkLen(t, &ms[0], postingChunkLen)
	agree(t, eng, wantWhole)
}

// v1Fixture is a directory written by the last build that wrote segment
// format 1 (dictionary and skylines in MANIFEST.json, D.docid, no
// checksums): SaveIndex of v1FixtureCollection's documents [0, 200), then
// AppendSegment of [200, 300).
const v1Fixture = "testdata/v1-segments"

// v1FixtureCollection is the collection v1Fixture was written from.
func v1FixtureCollection() *Collection {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen, cfg.NumTopics = 400, 900, 40, 8
	return GenerateCollection(cfg)
}

// copyTree copies the directory src to dst file by file.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// segmentVersions returns the format version of every segment of dir.
func segmentVersions(t *testing.T, dir string) []int {
	t.Helper()
	var out []int
	for _, m := range segmentManifests(t, dir) {
		out = append(out, m.Version)
	}
	return out
}

// testFormatV1Cross is the format-1 × format-2 cross of
// TestEveryDirectoryShape on a directory the format-1 writer wrote: it
// reopens, takes an Engine.Add (a format-2 segment beside two format-1
// ones), reopens again, merges all three into one format-2 segment, splits
// the mixed directory between its two format-1 segments, absorbs the right
// half back, and ships the mixed directory to a replica (what a replica
// pull does). Every directory ranks every query under every strategy bit
// for bit like an in-memory build of its documents.
func testFormatV1Cross(t *testing.T) {
	coll := v1FixtureCollection()
	queries := append(coll.PrecisionQueries(6, 71), coll.EfficiencyQueries(6, 72)...)
	ctx := context.Background()
	reference := func(lo, hi int) map[Strategy][][]Result {
		t.Helper()
		c, err := coll.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(c, IndexConfig{DocIDBase: int64(lo)})
		if err != nil {
			t.Fatal(err)
		}
		s := ir.NewSearcher(ix, 0)
		want := map[Strategy][][]Result{}
		for _, strat := range AllStrategies {
			for _, q := range queries {
				hits, _, err := s.Search(q.Terms, 10, strat)
				if err != nil {
					t.Fatal(err)
				}
				want[strat] = append(want[strat], hits)
			}
		}
		return want
	}
	agree := func(label, dir string, want map[Strategy][][]Result) {
		t.Helper()
		eng, err := OpenDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer eng.Close()
		for _, strat := range AllStrategies {
			for i, q := range queries {
				resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10, Strategy: strat})
				if err != nil {
					t.Fatalf("%s: %v %v: %v", label, strat, q.Terms, err)
				}
				if !reflect.DeepEqual(resp.Hits, want[strat][i]) {
					t.Errorf("%s: %v %v diverged from the in-memory build:\n got %v\nwant %v", label, strat, q.Terms, resp.Hits, want[strat][i])
				}
			}
		}
	}
	wantSeed, wantWhole := reference(0, 300), reference(0, 400)

	dir := filepath.Join(t.TempDir(), "ix")
	copyTree(t, v1Fixture, dir)
	if v := segmentVersions(t, dir); !reflect.DeepEqual(v, []int{1, 1}) {
		t.Fatalf("the fixture's segment formats are %v, want [1 1]", v)
	}
	agree("reopened", dir, wantSeed)

	eng, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := coll.Docs(300, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(ctx, extra); err != nil {
		t.Fatalf("Add onto format 1: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if v := segmentVersions(t, dir); !reflect.DeepEqual(v, []int{1, 1, storage.FormatVersion}) {
		t.Fatalf("after the Add the segment formats are %v, want [1 1 %d]", v, storage.FormatVersion)
	}
	agree("appended", dir, wantWhole)
	mixed := filepath.Join(t.TempDir(), "mixed")
	copyTree(t, dir, mixed)

	eng, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged, err := eng.mergeOnce(1, func() bool { return false }); err != nil || !merged {
		t.Fatalf("merge: %v, %v", merged, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if v := segmentVersions(t, dir); !reflect.DeepEqual(v, []int{storage.FormatVersion}) {
		t.Fatalf("after the merge the segment formats are %v, want [%d]", v, storage.FormatVersion)
	}
	agree("merged", dir, wantWhole)

	// A replica pull ships every file of every segment, then installs the
	// primary's SEGMENTS.json.
	replica := filepath.Join(t.TempDir(), "replica")
	raw, sm, err := storage.ReadSegmentsRaw(mixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range sm.Names() {
		files, err := storage.SegmentFiles(mixed, seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := storage.ReadSegmentFileAt(mixed, seg, f.Name, 0, int(f.Size))
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteSegmentFileChunk(replica, seg, f.Name, 0, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := storage.InstallManifest(replica, raw); err != nil {
		t.Fatalf("install on the replica: %v", err)
	}
	agree("pulled", replica, wantWhole)

	// Split between the two format-1 segments, then absorb the right half
	// (a format-1 and a format-2 segment) back.
	right := filepath.Join(t.TempDir(), "right")
	if err := storage.PrepareSplit(mixed, right, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.CommitSplit(mixed, 200); err != nil {
		t.Fatal(err)
	}
	agree("left half", mixed, reference(0, 200))
	agree("right half", right, reference(200, 400))

	// The left half is one format-1 segment: a save of it, opened, writes
	// format 2 — T from its dictionary, checksums over its chunks, no
	// D.docid.
	ix, err := LoadIndex(mixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(t.TempDir(), "resaved")
	err = SaveIndex(resaved, ix)
	ix.Close()
	if err != nil {
		t.Fatal(err)
	}
	ms := segmentManifests(t, resaved)
	if ms[0].Version != storage.FormatVersion || len(ms[0].T.Columns) == 0 || len(ms[0].D.Columns) != 2 {
		t.Fatalf("a save of a format-1 segment wrote format %d with %d T and %d D columns, want format %d, T and D's len and name",
			ms[0].Version, len(ms[0].T.Columns), len(ms[0].D.Columns), storage.FormatVersion)
	}
	agree("resaved left half", resaved, reference(0, 200))
	prep, err := storage.PrepareAbsorb(mixed, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.CommitAbsorb(prep); err != nil {
		t.Fatal(err)
	}
	agree("absorbed", mixed, wantWhole)
}
