package storage

import (
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

// rangeCollection is the collection the range-op tests reshape: small,
// because they build every range twice.
func rangeCollection() *corpus.Collection {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 800
	cfg.Vocab = 1600
	cfg.AvgDocLen = 64
	cfg.NumTopics = 16
	return corpus.Generate(cfg)
}

// rangeQueries are the queries the range-op tests compare rankings over.
func rangeQueries(c *corpus.Collection) []corpus.Query {
	return append(c.PrecisionQueries(12, 31), c.EfficiencyQueries(12, 32)...)
}

// freshBuild appends c's documents [lo, hi) as one segment to a new
// directory based at docid lo — what a directory holding exactly that
// range would be had it been built directly.
func freshBuild(t *testing.T, c *corpus.Collection, lo, hi int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "fresh")
	if err := InitSegmented(dir, int64(lo)); err != nil {
		t.Fatal(err)
	}
	appendRanges(t, dir, c, lo, hi)
	return dir
}

// sameRankings checks that dir serves every strategy's top k for queries
// exactly as want does: docids, names and scores, bit for bit.
func sameRankings(t *testing.T, label, dir, want string, queries []corpus.Query, k int) {
	t.Helper()
	run := func(dir string) map[ir.Strategy][][]ir.Result {
		snap, err := OpenSegmented(dir, colbm.NewManager(0))
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		return searchAll(t, ir.NewSnapshotSearcher(snap, 0), queries, k)
	}
	got, exp := run(dir), run(want)
	for _, strat := range ir.AllStrategies {
		for qi, q := range queries {
			if !reflect.DeepEqual(got[strat][qi], exp[strat][qi]) {
				t.Errorf("%s: %v query %v:\n got %v\nwant %v", label, strat, q.Terms, got[strat][qi], exp[strat][qi])
			}
		}
	}
}

// TestSplitHalvesMatchFreshBuilds splits a default-layout (quantized)
// directory of four appended segments at a segment boundary and checks
// that each half ranks every query under every strategy exactly as a
// fresh build of its documents does: each half commits statistics and
// quantization bounds of its own, not the pre-split collection's.
func TestSplitHalvesMatchFreshBuilds(t *testing.T) {
	coll := rangeCollection()
	dir := filepath.Join(t.TempDir(), "src")
	appendRanges(t, dir, coll, 0, 200, 400, 600, 800)
	right := filepath.Join(t.TempDir(), "right")
	const at = 400
	if err := PrepareSplit(dir, right, at); err != nil {
		t.Fatal(err)
	}
	if _, err := CommitSplit(dir, at); err != nil {
		t.Fatal(err)
	}
	queries := rangeQueries(coll)
	sameRankings(t, "left half", dir, freshBuild(t, coll, 0, at), queries, 20)
	sameRankings(t, "right half", right, freshBuild(t, coll, at, 800), queries, 20)
}

// TestCommitSplitRerunWritesNothing pins CommitSplit's idempotence: a
// re-run against a directory already split returns its generation and
// leaves SEGMENTS.json untouched.
func TestCommitSplitRerunWritesNothing(t *testing.T) {
	coll := rangeCollection()
	dir := filepath.Join(t.TempDir(), "src")
	appendRanges(t, dir, coll, 0, 400, 800)
	gen, err := CommitSplit(dir, 400)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(segmentsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	again, err := CommitSplit(dir, 400)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(segmentsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if again != gen || !os.SameFile(before, after) {
		t.Errorf("re-run CommitSplit: generation %d (want %d), manifest rewritten %v", again, gen, !os.SameFile(before, after))
	}
}

// TestAbsorbMatchesFreshBuild absorbs one default-layout directory into
// its left neighbor and checks the result ranks every query under every
// strategy exactly as one fresh build of both ranges does: the absorbed
// segment is baked against the merged statistics and bounds, and the
// commit records them.
func TestAbsorbMatchesFreshBuild(t *testing.T) {
	coll := rangeCollection()
	dst := filepath.Join(t.TempDir(), "dst")
	appendRanges(t, dst, coll, 0, 200, 400)
	src := filepath.Join(t.TempDir(), "src")
	if err := InitSegmented(src, 400); err != nil {
		t.Fatal(err)
	}
	// The destination holds the collection's highest weight, so the
	// absorbed segment's own postings alone would quantize against a lower
	// bound.
	appendRanges(t, src, coll, 400, 600, 800)
	prep, err := PrepareAbsorb(dst, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitAbsorb(prep); err != nil {
		t.Fatal(err)
	}
	sameRankings(t, "absorbed", dst, freshBuild(t, coll, 0, 800), rangeQueries(coll), 20)
}

// externalBuild writes c's documents [lo, hi) as a new External directory
// built against stats — what dist.BuildPartitions writes for one partition.
func externalBuild(t *testing.T, c *corpus.Collection, lo, hi int, stats *ir.GlobalStats) string {
	t.Helper()
	sub, err := c.Slice(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	bc := ir.DefaultBuildConfig()
	bc.Stats, bc.DocIDBase = stats, int64(lo)
	ix, err := ir.Build(sub, bc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ext")
	if err := WriteSegmentedIndex(dir, []*ir.Index{ix}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestAbsorbExternalKeepsCoordinatedStats: absorbing one External
// directory into another bakes the new segment against the statistics
// both were built with, not the two partitions' own (which cover half the
// collection), so the result ranks exactly like one External build of
// both ranges; directories built against different statistics refuse to
// merge.
func TestAbsorbExternalKeepsCoordinatedStats(t *testing.T) {
	coll := rangeCollection()
	stats := ir.CollectionStats(coll)
	dst := externalBuild(t, coll, 0, 200, stats)
	src := externalBuild(t, coll, 200, 400, stats)
	prep, err := PrepareAbsorb(dst, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitAbsorb(prep); err != nil {
		t.Fatal(err)
	}
	sameRankings(t, "absorbed", dst, externalBuild(t, coll, 0, 400, stats), rangeQueries(coll), 20)

	half, err := coll.Slice(400, 800)
	if err != nil {
		t.Fatal(err)
	}
	other := externalBuild(t, coll, 400, 800, ir.CollectionStats(half))
	if _, err := PrepareAbsorb(dst, other, nil); err == nil || !strings.Contains(err.Error(), "external statistics differ") {
		t.Errorf("absorbing a directory built against other statistics: %v, want a refusal", err)
	}
}

// TestCommitAbsorbAfterDestinationAdvanced pins the absorb CAS: a
// destination that committed since the prepare fails the commit with
// ErrConcurrentWriter, and the prepared segment is removed.
func TestCommitAbsorbAfterDestinationAdvanced(t *testing.T) {
	coll := rangeCollection()
	dst := filepath.Join(t.TempDir(), "dst")
	appendRanges(t, dst, coll, 0, 200)
	src := filepath.Join(t.TempDir(), "src")
	if err := InitSegmented(src, 400); err != nil {
		t.Fatal(err)
	}
	appendRanges(t, src, coll, 400, 800)
	prep, err := PrepareAbsorb(dst, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRanges(t, dst, coll, 200, 400)
	if _, err := CommitAbsorb(prep); !errors.Is(err, ErrConcurrentWriter) {
		t.Fatalf("CommitAbsorb after dst advanced: %v, want ErrConcurrentWriter", err)
	}
	if _, err := os.Stat(filepath.Join(dst, prep.entry.Name)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("prepared segment %q survived the failed commit: %v", prep.entry.Name, err)
	}
	sm, err := ReadSegments(dst)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sm.Segments); n != 2 {
		t.Errorf("dst holds %d segments after the failed absorb, want 2", n)
	}
}

// TestCopyDirCutShortLeavesNoManifest blocks one segment of a copy (a
// file where its directory must go) and checks the cut-short copy holds
// no index — the commit point is copied last — and that a second copy,
// once unblocked, opens.
func TestCopyDirCutShortLeavesNoManifest(t *testing.T) {
	coll := rangeCollection()
	src := filepath.Join(t.TempDir(), "src")
	appendRanges(t, src, coll, 0, 400, 800)
	sm, err := ReadSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "dst")
	blocker := filepath.Join(dst, sm.Segments[1].Name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CopyDir(src, dst); err == nil {
		t.Fatal("CopyDir succeeded with a segment directory blocked")
	}
	if _, err := ReadSegments(dst); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a cut-short copy holds a manifest (ReadSegments: %v)", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := CopyDir(src, dst); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSegmented(dst, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.NumDocs() != 800 {
		t.Errorf("copy serves %d docs, want 800", snap.NumDocs())
	}
}
