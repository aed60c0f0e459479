package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// foreignDir builds an index with build into a scratch path and moves it
// to dir: the memo then holds none of dir's manifests, as if another
// process had written the directory.
func foreignDir(t *testing.T, dir string, build func(tmp string)) {
	t.Helper()
	tmp := dir + ".build"
	build(tmp)
	if err := os.Rename(tmp, dir); err != nil {
		t.Fatal(err)
	}
}

// TestBareAppendDecodesEachSegmentOnce: an append onto a directory this
// process did not write and no reader holds open (cmd/indexer -append onto
// an existing index) decodes each existing segment's manifest exactly once
// — the bounds re-scan opens segments from the manifests the statistics
// pass already read — and leaves only the manifest it wrote memoized,
// parked for whoever reads the segment next. Appends onto what the process
// wrote itself decode nothing.
func TestBareAppendDecodesEachSegmentOnce(t *testing.T) {
	coll := segTestCollection(t)
	dir := filepath.Join(t.TempDir(), "segix")
	foreignDir(t, dir, func(tmp string) { appendRanges(t, tmp, coll, 0, 400, 800, 1200) })
	got := decodesDuring(func() { appendRanges(t, dir, coll, 1200, 1600) })
	if got != 3 {
		t.Errorf("append onto 3 unheld segments decoded %d manifests, want 3", got)
	}
	if n := MemoEntries(dir); n != 1 {
		t.Errorf("%d manifests memoized with no segment open, want 1 (the written segment's)", n)
	}
	if got := decodesDuring(func() { appendRanges(t, dir, coll, 0, 400) }); got != 3 {
		t.Errorf("append onto 3 unheld segments and 1 written one decoded %d manifests, want 3", got)
	}
	own := filepath.Join(t.TempDir(), "own")
	if got := decodesDuring(func() { appendRanges(t, own, coll, 0, 400, 800, 1200) }); got != 0 {
		t.Errorf("3 appends onto the segments they wrote decoded %d manifests, want 0", got)
	}
}

// TestParkedManifestsBounded: a process that writes segments it never
// opens keeps at most maxParked of their manifests memoized, the newest;
// an older one is decoded again when something reads it.
func TestParkedManifestsBounded(t *testing.T) {
	coll := segTestCollection(t)
	root := t.TempDir()
	dir := func(i int) string { return filepath.Join(root, fmt.Sprintf("ix%02d", i)) }
	for i := 0; i < maxParked+4; i++ {
		appendRanges(t, dir(i), coll, 20*i, 20*i+20)
	}
	if n := MemoEntries(root); n != maxParked {
		t.Errorf("%d manifests memoized after %d unopened writes, want %d", n, maxParked+4, maxParked)
	}
	for i, want := range map[int]int64{0: 1, maxParked + 3: 0} {
		sm, err := ReadSegments(dir(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := decodesDuring(func() { _, err = readManifest(dir(i), sm.Names()[0]) }); err != nil || got != want {
			t.Errorf("read of write %d: %d decodes, %v; want %d, nil", i, got, err, want)
		}
	}
}

// TestHeldGenerationIsolatedFromLaterCommits: generations N, N+1 (an
// append) and N+2 (a merge) share the manifests of the segments they have
// in common — one dictionary map per segment, across generations — and
// decode none of the segments their commits wrote; each still scores as
// its own collection would — N's document frequencies (as its plans use
// them), Params and rankings stay DocID+Score bit-exact to a centralized
// build of N's documents after N+1 and N+2 installed theirs.
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
		epoch, err := BuildMergedSegment(dir, names, into, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CommitMerge(dir, names, into, epoch, nil); err != nil {
			t.Fatal(err)
		}
		genN2 = open()
	})
	if decodes != 0 {
		t.Errorf("append + merge with generation N held decoded %d manifests, want 0 (their writers handed theirs over)", decodes)
	}
	for i, seg := range genN.Segments() {
		if next := genN1.Segments()[i]; reflect.ValueOf(seg.Terms).UnsafePointer() != reflect.ValueOf(next.Terms).UnsafePointer() {
			t.Errorf("segment %d: generations N and N+1 hold different dictionary maps", i)
		}
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
		}
		// The df a plan scores with is the one its BM25 weight renders.
		s := ir.NewSnapshotSearcher(c.snap, 0)
		for term, ti := range c.ref.Terms {
			plan, err := s.ExplainPlan([]string{term}, 10, ir.BM25)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("ftd=%d)", ti.Ftd); !strings.Contains(plan, want) {
				t.Errorf("generation %s term %q: plan does not score with %s:\n%s", c.name, term, want, plan)
				break
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
		rewritten, err := json.Marshal(&changed)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, rewritten, 0o644); err != nil {
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
		// Same names, other contents, written elsewhere: a handoff under
		// dir's path would skip the decode.
		foreignDir(t, dir, func(tmp string) { appendRanges(t, tmp, coll, 0, 400, 1600) })
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
	if _, err := AppendSegment(dir, coll, nil); !errors.Is(err, ErrBadManifest) {
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

// handedMatchesDecode requires the manifest the writer of segment seg of
// dir just handed to the memo to equal, field by field, what
// decodeManifest makes of the bytes on disk. byRow is compared as a set: past the terms
// with a skyline its order is a map's.
func handedMatchesDecode(t *testing.T, dir, seg string) {
	t.Helper()
	segDir := filepath.Join(dir, seg)
	memo.mu.Lock()
	e := memo.entries[segDir]
	memo.mu.Unlock()
	if e == nil {
		t.Fatalf("%s: no manifest handed over", segDir)
	}
	raw, err := os.ReadFile(manifestPath(segDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.raw, raw) {
		t.Fatalf("%s: handed-over bytes differ from the file's", segDir)
	}
	d, err := decodeManifest(segDir, seg, raw)
	if err != nil {
		t.Fatal(err)
	}
	h := e.m
	if n := reflect.TypeOf(Manifest{}).NumField(); n != 13 {
		t.Fatalf("Manifest has %d fields, this comparison knows 13", n)
	}
	rowSet := func(rows []termRows) []termRows {
		rows = slices.Clone(rows)
		slices.SortFunc(rows, func(a, b termRows) int { return strings.Compare(a.term, b.term) })
		return rows
	}
	for _, f := range []struct {
		name string
		h, d any
	}{
		{"Magic", h.Magic, d.Magic}, {"Version", h.Version, d.Version},
		{"Config", h.Config, d.Config}, {"Params", h.Params, d.Params},
		{"ScoreLo", h.ScoreLo, d.ScoreLo}, {"ScoreHi", h.ScoreHi, d.ScoreHi},
		{"Terms", h.Terms, d.Terms}, {"T", h.T, d.T},
		{"skylines", h.skylines, d.skylines}, {"byRow", rowSet(h.byRow), rowSet(d.byRow)},
		{"TD", h.TD, d.TD}, {"D", h.D, d.D},
	} {
		if !reflect.DeepEqual(f.h, f.d) {
			t.Errorf("%s: handed-over %s differs from the decoded one", segDir, f.name)
		}
	}
	if h.maxima == nil || d.maxima == nil {
		t.Errorf("%s: a manifest without a stride-maxima cache", segDir)
	}
}

// TestHandedManifestMatchesDecode: over random appends, merges and splits,
// in a directory started empty or seeded with a segment saved from a
// small-chunk build with a bounded pool, every segment a writer wrote —
// saved, appended, merged, or linked into a split's right half — was
// handed to the memo as exactly the manifest a decode of its bytes gives.
func TestHandedManifestMatchesDecode(t *testing.T) {
	coll := segTestCollection(t)
	rng := rand.New(rand.NewSource(56))
	for trial, seeded := range []bool{false, true, false} {
		dirs := []string{filepath.Join(t.TempDir(), "segix")}
		next := 0
		if seeded {
			next = 300
			seed, err := coll.Slice(0, next)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := ir.Build(seed, ir.BuildConfig{ChunkLen: 4096, PoolBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteSegmentedIndex(dirs[0], []*ir.Index{ix}); err != nil {
				t.Fatal(err)
			}
			sm, err := ReadSegments(dirs[0])
			if err != nil {
				t.Fatal(err)
			}
			handedMatchesDecode(t, dirs[0], sm.Segments[0].Name)
		}
		for op := 0; op < 12; op++ {
			dir := dirs[rng.Intn(len(dirs))]
			sm, err := ReadSegments(dir)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			n := 0
			if sm != nil {
				n = len(sm.Segments)
			}
			switch kind := rng.Intn(4); {
			case kind == 0 && n >= 2: // merge an adjacent run
				at := rng.Intn(n - 1)
				names := sm.Names()[at : at+2+rng.Intn(n-at-1)]
				into, err := AllocSegmentDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				epoch, err := BuildMergedSegment(dir, names, into, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := CommitMerge(dir, names, into, epoch, nil); err != nil {
					t.Fatal(err)
				}
				handedMatchesDecode(t, dir, into)
			case kind == 1 && n >= 2: // split off the segments from a boundary on
				at := sm.Segments[1+rng.Intn(n-1)].DocBase
				right := filepath.Join(t.TempDir(), fmt.Sprintf("right%d", op))
				if err := PrepareSplit(dir, right, at); err != nil {
					t.Fatal(err)
				}
				if _, err := CommitSplit(dir, at); err != nil {
					t.Fatal(err)
				}
				rsm, err := ReadSegments(right)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range rsm.Names() {
					handedMatchesDecode(t, right, name)
				}
				dirs = append(dirs, right)
			default: // append a batch of 20..219 documents
				size := 20 + rng.Intn(200)
				if next+size > len(coll.DocLens) {
					next = 0
				}
				batch, err := coll.Slice(next, next+size)
				if err != nil {
					t.Fatal(err)
				}
				next += size
				if _, err := AppendSegment(dir, batch, nil); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				sm, err := ReadSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				handedMatchesDecode(t, dir, sm.Segments[len(sm.Segments)-1].Name)
			}
		}
	}
}
