package storage

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colbm"
	"repro/internal/ir"
)

// decodesDuring returns how many segment manifests fn decoded.
func decodesDuring(fn func()) int64 {
	before := ManifestDecodes()
	fn()
	return ManifestDecodes() - before
}

// TestBareAppendDecodesEachSegmentOnce: an append onto a directory no
// reader holds open (cmd/indexer -append, repro.AppendSegment) decodes each
// existing segment's manifest exactly once — the bounds re-scan opens
// segments from the manifests the statistics pass already read — and
// leaves nothing memoized.
func TestBareAppendDecodesEachSegmentOnce(t *testing.T) {
	coll := segTestCollection(t)
	dir := filepath.Join(t.TempDir(), "segix")
	appendRanges(t, dir, coll, 0, 400, 800, 1200)
	got := decodesDuring(func() { appendRanges(t, dir, coll, 1200, 1600) })
	if got != 3 {
		t.Errorf("append onto 3 unheld segments decoded %d manifests, want 3", got)
	}
	if n := MemoEntries(dir); n != 0 {
		t.Errorf("%d manifests memoized with no segment open, want 0", n)
	}
}

// TestHeldGenerationIsolatedFromLaterCommits: generations N, N+1 (an
// append) and N+2 (a merge) share the decoded manifests of the segments
// they have in common, and each still scores as its own collection would —
// N's term statistics, Params and rankings stay DocID+Score bit-exact to a
// centralized build of N's documents after N+1 and N+2 patched theirs.
func TestHeldGenerationIsolatedFromLaterCommits(t *testing.T) {
	coll := segTestCollection(t)
	queries := append(coll.PrecisionQueries(6, 11), coll.EfficiencyQueries(6, 12)...)
	prefix, err := coll.Slice(0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	refN, err := ir.Build(prefix, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	refAll, err := ir.Build(coll, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "segix")
	appendRanges(t, dir, coll, 0, 400, 800, 1200)
	cache := colbm.NewManager(0)
	open := func() *ir.Snapshot {
		t.Helper()
		snap, err := OpenSegmented(dir, cache)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() })
		return snap
	}
	genN := open()

	var genN1, genN2 *ir.Snapshot
	decodes := decodesDuring(func() {
		appendRanges(t, dir, coll, 1200, 1600)
		genN1 = open()
		sm, err := ReadSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := sm.Names()[:2]
		into, err := AllocSegmentDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := BuildMergedSegment(dir, names, into, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CommitMerge(dir, names, into, epoch); err != nil {
			t.Fatal(err)
		}
		genN2 = open()
	})
	if decodes != 2 {
		t.Errorf("append + merge with generation N held decoded %d manifests, want 2 (the two new segments)", decodes)
	}

	for _, c := range []struct {
		name string
		snap *ir.Snapshot
		ref  *ir.Index
	}{{"N", genN, refN}, {"N+1", genN1, refAll}, {"N+2 (merged)", genN2, refAll}} {
		for i, seg := range c.snap.Segments() {
			if seg.Params != c.ref.Params {
				t.Errorf("generation %s segment %d Params %+v, want %+v", c.name, i, seg.Params, c.ref.Params)
			}
			for term, ti := range seg.Terms {
				if want := c.ref.Terms[term].Ftd; ti.Ftd != want {
					t.Errorf("generation %s segment %d term %q Ftd %d, want %d", c.name, i, term, ti.Ftd, want)
					break
				}
			}
		}
		want := searchAll(t, ir.NewSearcher(c.ref, 0), queries, 10)
		got := searchAll(t, ir.NewSnapshotSearcher(c.snap, 0), queries, 10)
		for _, strat := range ir.AllStrategies {
			for qi := range queries {
				if !reflect.DeepEqual(got[strat][qi], want[strat][qi]) {
					t.Errorf("generation %s %v query %v diverged from its centralized build:\n got %v\nwant %v",
						c.name, strat, queries[qi].Terms, got[strat][qi], want[strat][qi])
				}
			}
		}
	}
}

// TestMemoDecodesChangedContent: a memo hit needs the exact bytes it
// decoded, so a rewritten manifest, or a directory recreated at the same
// path with other segments under the same names, is decoded afresh while
// the old decode is still held — and a holder's release never drops the
// entry of newer content.
func TestMemoDecodesChangedContent(t *testing.T) {
	coll := segTestCollection(t)
	t.Run("rewritten manifest", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "segix")
		appendRanges(t, dir, coll, 0, 800, 1600)
		snap, err := OpenSegmented(dir, colbm.NewManager(0))
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		held, err := readManifest(dir, "seg-000002")
		if err != nil {
			t.Fatal(err)
		}
		path := manifestPath(filepath.Join(dir, "seg-000002"))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changed := *held
		changed.ScoreHi++
		if err := writeManifest(filepath.Join(dir, "seg-000002"), &changed); err != nil {
			t.Fatal(err)
		}
		var got *Manifest
		if n := decodesDuring(func() { got, err = readManifest(dir, "seg-000002") }); err != nil || n != 1 {
			t.Fatalf("read of a rewritten manifest: %d decodes, %v; want 1, nil", n, err)
		}
		if got == held || got.ScoreHi != held.ScoreHi+1 {
			t.Errorf("rewritten manifest served the held decode (ScoreHi %v, held %v)", got.ScoreHi, held.ScoreHi)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if n := decodesDuring(func() { got, err = readManifest(dir, "seg-000002") }); err != nil || n != 0 || got != held {
			t.Errorf("read of the held content: %d decodes, %v, shared=%v; want 0, nil, true", n, err, got == held)
		}
	})
	t.Run("recreated directory", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "segix")
		appendRanges(t, dir, coll, 0, 800, 1600)
		old, err := OpenSegmented(dir, colbm.NewManager(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		appendRanges(t, dir, coll, 0, 400, 1600) // same names, other contents
		var snap *ir.Snapshot
		if n := decodesDuring(func() { snap, err = OpenSegmented(dir, colbm.NewManager(0)) }); err != nil || n != 2 {
			t.Fatalf("open of the recreated directory: %d decodes, %v; want 2, nil", n, err)
		}
		defer snap.Close()
		if got := snap.Segments()[0].NumDocs(); got != 400 {
			t.Errorf("recreated seg-000001 opened with %d documents, want 400", got)
		}
		old.Close()
		if n := MemoEntries(dir); n != 2 {
			t.Errorf("closing the old generation left %d memo entries, want the new generation's 2", n)
		}
	})
}

// TestCorruptManifestFailsEveryRead: errors are never memoized, and a held
// decode of the old bytes never masks a corrupted file.
func TestCorruptManifestFailsEveryRead(t *testing.T) {
	coll := segTestCollection(t)
	dir := filepath.Join(t.TempDir(), "segix")
	appendRanges(t, dir, coll, 0, 800, 1600)
	snap, err := OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	path := manifestPath(filepath.Join(dir, "seg-000002"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n := decodesDuring(func() { _, err = readManifest(dir, "seg-000002") }); !errors.Is(err, ErrBadManifest) || n != 1 {
			t.Errorf("read %d of a corrupted manifest: %d decodes, %v; want 1, ErrBadManifest", i, n, err)
		}
	}
	if s, err := OpenSegmented(dir, colbm.NewManager(0)); !errors.Is(err, ErrBadManifest) {
		if err == nil {
			s.Close()
		}
		t.Errorf("open over a corrupted manifest: %v, want ErrBadManifest", err)
	}
	if _, err := AppendSegment(dir, coll, ir.DefaultBuildConfig()); !errors.Is(err, ErrBadManifest) {
		t.Errorf("append over a corrupted manifest: %v, want ErrBadManifest", err)
	}
}

// TestManifestMemoConcurrentUse opens, reads and closes one directory's
// segments from several goroutines (CI runs it under -race): every reader
// sees the same dictionaries, and once every open segment has closed the
// memo holds nothing for the directory.
func TestManifestMemoConcurrentUse(t *testing.T) {
	coll := segTestCollection(t)
	dir := filepath.Join(t.TempDir(), "segix")
	appendRanges(t, dir, coll, 0, 400, 800, 1600)
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, name := range sm.Names() {
		m, err := readManifest(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = len(m.Terms)
	}
	query := coll.EfficiencyQueries(1, 5)[0].Terms
	cache := colbm.NewManager(0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g%2 == 0 {
					snap, err := OpenSegmented(dir, cache)
					if err != nil {
						t.Error(err)
						return
					}
					if _, _, err := ir.NewSnapshotSearcher(snap, 0).Search(query, 10, ir.BM25); err != nil {
						t.Error(err)
					}
					snap.Close()
					continue
				}
				for name, n := range want {
					m, err := readManifest(dir, name)
					if err != nil {
						t.Error(err)
						return
					}
					if len(m.Terms) != n {
						t.Errorf("%s: %d terms, want %d", name, len(m.Terms), n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := MemoEntries(dir); n != 0 {
		t.Errorf("%d manifests memoized after every segment closed, want 0", n)
	}
}

// TestInstallDecodesReusedByOpen: bootstrapping a replica — install the
// shipped manifest, then open the directory — decodes each segment manifest
// once. The install parks its decodes for the open, a no-op re-install
// leaves them parked, and the open takes them over, so closing it leaves
// nothing memoized; a failed install parks nothing.
func TestInstallDecodesReusedByOpen(t *testing.T) {
	coll := segTestCollection(t)
	src := filepath.Join(t.TempDir(), "src")
	appendRanges(t, src, coll, 0, 400, 800)
	manifest, err := os.ReadFile(segmentsPath(src))
	if err != nil {
		t.Fatal(err)
	}

	empty := filepath.Join(t.TempDir(), "empty")
	if _, err := InstallManifest(empty, manifest); err == nil {
		t.Fatal("install with no segment files shipped succeeded")
	}
	if n := MemoEntries(empty); n != 0 {
		t.Errorf("%d manifests memoized after a failed install, want 0", n)
	}

	dst := filepath.Join(t.TempDir(), "dst")
	var snap *ir.Snapshot
	got := decodesDuring(func() {
		if err := CopyDir(src, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := InstallManifest(dst, manifest); err != nil {
			t.Fatal(err)
		}
		if snap, err = OpenSegmented(dst, colbm.NewManager(0)); err != nil {
			t.Fatal(err)
		}
	})
	if got != 2 {
		t.Errorf("install + re-install + open of 2 segments decoded %d manifests, want 2", got)
	}
	snap.Close()
	if n := MemoEntries(dst); n != 0 {
		t.Errorf("%d manifests memoized after the opened replica closed, want 0", n)
	}
}
