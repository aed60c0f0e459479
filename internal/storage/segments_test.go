package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
)

func segTestCollection(t *testing.T) *corpus.Collection {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 1600
	cfg.Vocab = 2400
	cfg.AvgDocLen = 64
	cfg.NumTopics = 16
	return corpus.Generate(cfg)
}

// appendInBatches splits the collection into n contiguous batches and
// appends each as one segment.
func appendInBatches(t *testing.T, dir string, c *corpus.Collection, n int) {
	t.Helper()
	cuts := make([]int, n+1)
	for i := range cuts {
		cuts[i] = i * len(c.DocLens) / n
	}
	appendRanges(t, dir, c, cuts...)
}

// appendRanges appends c's documents [cuts[i], cuts[i+1]) as one segment
// each.
func appendRanges(t *testing.T, dir string, c *corpus.Collection, cuts ...int) {
	t.Helper()
	for i := 0; i+1 < len(cuts); i++ {
		batch, err := c.Slice(cuts[i], cuts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AppendSegment(dir, batch, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func searchAll(t *testing.T, s *ir.Searcher, queries []corpus.Query, k int) map[ir.Strategy][][]ir.Result {
	t.Helper()
	out := make(map[ir.Strategy][][]ir.Result)
	for _, strat := range ir.AllStrategies {
		for _, q := range queries {
			res, _, err := s.Search(q.Terms, k, strat)
			if err != nil {
				t.Fatalf("%v %v: %v", strat, q.Terms, err)
			}
			out[strat] = append(out[strat], res)
		}
	}
	return out
}

// TestSegmentedEquivalence is the acceptance property of the segmented
// architecture: building a collection as one segment, appending it in 4
// batches, and appending in 4 batches plus a forced merge all yield
// IDENTICAL top-k results and scores, across every strategy, and all equal
// a plain monolithic build. The 4-batch arm exercises the virtual
// (query-time) materialization path — three of its segments are baked
// against superseded statistics; the merged arm exercises re-baking.
func TestSegmentedEquivalence(t *testing.T) {
	coll := segTestCollection(t)
	queries := append(coll.PrecisionQueries(6, 11), coll.EfficiencyQueries(6, 12)...)
	const k = 10

	// Reference: plain monolithic in-memory build.
	plain, err := ir.Build(coll, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, ir.NewSearcher(plain, 0), queries, k)

	arms := map[string]func(dir string){
		"one-segment": func(dir string) {
			appendInBatches(t, dir, coll, 1)
		},
		"four-appends": func(dir string) {
			appendInBatches(t, dir, coll, 4)
		},
		"four-appends-merged": func(dir string) {
			appendInBatches(t, dir, coll, 4)
			sm, err := ReadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, len(sm.Segments))
			for i, e := range sm.Segments {
				names[i] = e.Name
			}
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
		},
		"partial-merge": func(dir string) {
			appendInBatches(t, dir, coll, 4)
			sm, err := ReadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Merge the middle two: the snapshot then mixes a merged
			// segment with stale and fresh appended ones.
			names := []string{sm.Segments[1].Name, sm.Segments[2].Name}
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
		},
	}
	for name, build := range arms {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segix")
			build(dir)
			snap, err := OpenSegmented(dir, colbm.NewManager(0))
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if snap.NumDocs() != len(coll.DocLens) || snap.NumPostings() != coll.NumPostings() {
				t.Fatalf("snapshot covers %d docs / %d postings, want %d / %d",
					snap.NumDocs(), snap.NumPostings(), len(coll.DocLens), coll.NumPostings())
			}
			got := searchAll(t, ir.NewSnapshotSearcher(snap, 0), queries, k)
			for _, strat := range ir.AllStrategies {
				for qi := range queries {
					if !reflect.DeepEqual(got[strat][qi], want[strat][qi]) {
						t.Errorf("%v query %v diverged from the monolithic build:\n got %v\nwant %v",
							strat, queries[qi].Terms, got[strat][qi], want[strat][qi])
					}
				}
			}
		})
	}
}

// TestSegmentedStalenessFlags pins the epoch bookkeeping: after n appends
// only the newest segment is statistics-fresh; a full merge makes the
// single survivor fresh again.
func TestSegmentedStalenessFlags(t *testing.T) {
	coll := segTestCollection(t)
	dir := filepath.Join(t.TempDir(), "segix")
	appendInBatches(t, dir, coll, 3)

	snap, err := OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumSegments() != 3 || snap.NumVirtual() != 2 {
		t.Errorf("after 3 appends: %d segments, %d virtual; want 3 and 2",
			snap.NumSegments(), snap.NumVirtual())
	}
	snap.Close()

	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{sm.Segments[0].Name, sm.Segments[1].Name, sm.Segments[2].Name}
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
	snap, err = OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.NumSegments() != 1 || snap.NumVirtual() != 0 {
		t.Errorf("after full merge: %d segments, %d virtual; want 1 and 0",
			snap.NumSegments(), snap.NumVirtual())
	}
}

// TestSegmentedSweep: replaced segment directories survive until swept,
// and the sweep honors both the current manifest and the in-use callback.
func TestSegmentedSweep(t *testing.T) {
	coll := segTestCollection(t)
	dir := filepath.Join(t.TempDir(), "segix")
	appendInBatches(t, dir, coll, 3)
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := []string{sm.Segments[0].Name, sm.Segments[1].Name}
	into, err := AllocSegmentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := BuildMergedSegment(dir, old, into, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitMerge(dir, old, into, epoch, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range old {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("replaced segment %q vanished before the sweep", name)
		}
	}
	// A reader still holds the first old segment: only the second goes.
	removed, err := SweepSegments(dir, func(name string) bool { return name == old[0] })
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != old[1] {
		t.Fatalf("sweep removed %v, want [%s]", removed, old[1])
	}
	// Reader gone: the rest goes; current segments stay.
	if _, err := SweepSegments(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, old[0])); !os.IsNotExist(err) {
		t.Errorf("unreferenced segment %q survived the sweep", old[0])
	}
	sm2, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sm2.Segments {
		if _, err := os.Stat(filepath.Join(dir, e.Name)); err != nil {
			t.Errorf("live segment %q swept: %v", e.Name, err)
		}
	}
}

// TestAppendSegmentGuards: misuse fails loudly.
func TestAppendSegmentGuards(t *testing.T) {
	coll := segTestCollection(t)
	batch, err := coll.Slice(0, 100)
	if err != nil {
		t.Fatal(err)
	}

	// A pre-segment directory has no super-manifest to recompute its
	// statistics from: it reads as External and refuses appends, with the
	// one typed statistics error.
	legacy := filepath.Join(t.TempDir(), "legacy")
	ix, err := ir.Build(coll, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeSegment(legacy, ix); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSegment(legacy, batch, nil); !errors.Is(err, ErrExternalStats) {
		t.Errorf("AppendSegment on a pre-segment directory: %v, want ErrExternalStats", err)
	}

	// A saved index built with a statistics override is External and
	// refuses appends; one built with its own statistics takes them.
	extCfg := ir.DefaultBuildConfig()
	extCfg.Stats = ir.CollectionStats(coll)
	extIx, err := ir.Build(coll, extCfg)
	if err != nil {
		t.Fatal(err)
	}
	ext := filepath.Join(t.TempDir(), "ext")
	if err := WriteSegmentedIndex(ext, []*ir.Index{extIx}); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSegment(ext, batch, nil); !errors.Is(err, ErrExternalStats) {
		t.Errorf("AppendSegment on an external-stats directory: %v, want ErrExternalStats", err)
	}
	own := filepath.Join(t.TempDir(), "own")
	if err := WriteSegmentedIndex(own, []*ir.Index{ix}); err != nil {
		t.Fatal(err)
	}
	if gen, err := AppendSegment(own, batch, nil); err != nil || gen != 2 {
		t.Errorf("AppendSegment on a saved own-statistics index: generation %d, %v; want 2, nil", gen, err)
	}
}

// TestSegmentedNewVocabularyEquivalence regression-tests the conjunctive
// pass against vocabulary that exists in only SOME segments (new terms
// arriving with an appended batch). A segment missing a query term can
// hold no conjunctive match; joining over the remaining terms instead
// would surface pseudo-conjunctive matches and skip the disjunctive pass
// a whole-collection index would run.
func TestSegmentedNewVocabularyEquivalence(t *testing.T) {
	// Batch A: common vocabulary only. Batch B: common plus a novel term
	// that appears nowhere in A.
	var docsA, docsB []corpus.Doc
	common := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 120; i++ {
		tokens := []string{common[i%4], common[(i+1)%4], common[(i+2)%4], "alpha"}
		docsA = append(docsA, corpus.Doc{Name: fmt.Sprintf("a-%03d", i), Tokens: tokens})
	}
	for i := 0; i < 40; i++ {
		tokens := []string{common[i%4], "beta"}
		if i%5 == 0 {
			tokens = append(tokens, "novel")
		}
		docsB = append(docsB, corpus.Doc{Name: fmt.Sprintf("b-%03d", i), Tokens: tokens})
	}
	battchA, err := corpus.FromDocs(docsA)
	if err != nil {
		t.Fatal(err)
	}
	batchB, err := corpus.FromDocs(docsB)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := corpus.FromDocs(append(append([]corpus.Doc(nil), docsA...), docsB...))
	if err != nil {
		t.Fatal(err)
	}

	mono, err := ir.Build(whole, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ms := ir.NewSearcher(mono, 0)

	dir := filepath.Join(t.TempDir(), "segix")
	if _, err := AppendSegment(dir, battchA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSegment(dir, batchB, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	ss := ir.NewSnapshotSearcher(snap, 0)

	queries := [][]string{
		{"alpha", "novel"},          // novel only in segment 2
		{"novel", "beta", "gamma"},  // three-way with a segment-local term
		{"novel"},                   // single term, one segment
		{"alpha", "beta"},           // everywhere
		{"novel", "unknownunknown"}, // one term nowhere at all
	}
	for _, terms := range queries {
		for _, strat := range ir.AllStrategies {
			want, wstats, err := ms.Search(terms, 8, strat)
			if err != nil {
				t.Fatalf("%v %v: %v", strat, terms, err)
			}
			got, gstats, err := ss.Search(terms, 8, strat)
			if err != nil {
				t.Fatalf("%v %v: %v", strat, terms, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %v diverged:\n got %v\nwant %v", strat, terms, got, want)
			}
			if gstats.SecondPass != wstats.SecondPass {
				t.Errorf("%v %v: second-pass gate diverged (segmented %v, monolithic %v)",
					strat, terms, gstats.SecondPass, wstats.SecondPass)
			}
		}
	}
}
