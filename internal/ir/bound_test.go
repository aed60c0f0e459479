package ir

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/primitives"
)

// bruteQuantized ranks a query straight from the collection, the way a
// BM25TCMQ8 search must: each posting's Okapi weight under p is quantized
// with Global-By-Value over [lo, hi], a document's score is the sum of its
// terms' codes, and the two-pass rule picks the conjunctive matches unless
// fewer than k exist and more than one term is known, in which case every
// matching document competes. Ties go to the lower docid.
func bruteQuantized(c *corpus.Collection, tid map[string]int, p primitives.BM25Params, lo, hi float64, terms []string, k int) []Result {
	score := map[int64]float64{}
	hits := map[int64]int{}
	resolved := 0
	q := make([]uint8, 1)
	for _, term := range terms {
		id, ok := tid[term]
		if !ok || len(c.Postings[id]) == 0 {
			continue
		}
		resolved++
		idf := p.IDF(float64(len(c.Postings[id])))
		for _, post := range c.Postings[id] {
			w := []float64{p.WeightIDF(idf, float64(post.TF), float64(c.DocLens[post.DocID]))}
			primitives.QuantizeGlobalByValue(q, w, lo, hi, 256, nil, 1)
			score[post.DocID] += float64(q[0])
			hits[post.DocID]++
		}
	}
	if resolved == 0 {
		return nil
	}
	var res []Result
	for d, n := range hits {
		if n == resolved {
			res = append(res, Result{DocID: d, Score: score[d]})
		}
	}
	if len(res) < k && resolved > 1 {
		res = res[:0]
		for d, s := range score {
			res = append(res, Result{DocID: d, Score: s})
		}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].DocID < res[j].DocID
	})
	return res[:min(k, len(res))]
}

// bakedSegments is a multi-segment snapshot whose segments are all baked
// at the collection's statistics, as partitions built with global
// statistics are: every segment's BM25TCMQ8 plan reads its qscore column,
// bounded.
func bakedSegments(tb testing.TB, c *corpus.Collection) *Snapshot {
	tb.Helper()
	n := len(c.DocLens)
	cuts := []int{0, n / 3, n/3 + 257, n}
	stats := CollectionStats(c)
	var segs []*Index
	for i := 0; i+1 < len(cuts); i++ {
		batch, err := c.Slice(cuts[i], cuts[i+1])
		if err != nil {
			tb.Fatal(err)
		}
		bc := DefaultBuildConfig()
		bc.DocIDBase = int64(cuts[i])
		bc.TablePrefix = fmt.Sprintf("part%d/", i)
		bc.Stats = stats
		ix, err := Build(batch, bc)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, ix)
	}
	snap, err := NewSnapshot(segs, SnapshotConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestQuantizedTopKMatchesBruteForce: a BM25TCMQ8 search, whose baked
// segments skip the posting strides the top-k cannot reach, ranks exactly
// as a brute-force ranking computed from the collection alone — DocID and
// Score bits — for k in {1, 10, 20, 100}, on one segment, on the live
// index's seed-plus-appends shape, and on segments all baked at the
// collection's statistics. The one segment is also searched with vectors
// of 1000 rows, so that runs start mid-stride, and of 16, so that TopN
// takes several batches before it holds k rows.
func TestQuantizedTopKMatchesBruteForce(t *testing.T) {
	c, ix := getIndex(t)
	tid := map[string]int{}
	for i, s := range c.TermStrings {
		tid[s] = i
	}
	qs := c.EfficiencyQueries(240, 41)
	terms := map[int]int{}
	for _, q := range qs {
		terms[len(q.Terms)]++
	}
	for n := 1; n <= 5; n++ {
		if terms[n] == 0 {
			t.Fatalf("no %d-term query among %d", n, len(qs))
		}
	}
	ks := []int{1, 10, 20, 100}
	want := make([][][]Result, len(qs))
	for i, q := range qs {
		for _, k := range ks {
			want[i] = append(want[i], bruteQuantized(c, tid, ix.Params, ix.ScoreLo, ix.ScoreHi, q.Terms, k))
		}
	}
	for _, sh := range []struct {
		name     string
		snap     *Snapshot
		vecSize  int
		allBaked bool
	}{
		{"one segment", SingleSnapshot(ix), 0, true},
		{"one segment, 1000-row vectors", SingleSnapshot(ix), 1000, true},
		{"one segment, 16-row vectors", SingleSnapshot(ix), 16, true},
		{"seed and appends", segmentedSnapshot(t, c), 0, false},
		{"baked segments", bakedSegments(t, c), 0, true},
	} {
		s := NewSnapshotSearcher(sh.snap, sh.vecSize)
		var scored, postings int64
		for i, q := range qs {
			for j, k := range ks {
				got, st, err := s.Search(q.Terms, k, BM25TCMQ8)
				if err != nil {
					t.Fatalf("%s %v k=%d: %v", sh.name, q.Terms, k, err)
				}
				if len(got) != len(want[i][j]) {
					t.Fatalf("%s %v k=%d: %d results, brute force %d", sh.name, q.Terms, k, len(got), len(want[i][j]))
				}
				for r, w := range want[i][j] {
					if got[r].DocID != w.DocID || math.Float64bits(got[r].Score) != math.Float64bits(w.Score) {
						t.Fatalf("%s %v k=%d rank %d: doc %d score %v, brute force doc %d score %v",
							sh.name, q.Terms, k, r, got[r].DocID, got[r].Score, w.DocID, w.Score)
					}
				}
				if len(q.Terms) == 1 && k == 1 {
					scored += st.Candidates
					postings += int64(len(c.Postings[tid[q.Terms[0]]]))
				}
			}
		}
		// A single-term query scores every posting unless its scan skips;
		// at k = 1 the floor rises fast, so where every segment is baked
		// the scans must skip.
		if sh.allBaked && scored >= postings {
			t.Errorf("%s: single-term queries at k=1 scored %d candidates of %d postings: the bound skipped nothing",
				sh.name, scored, postings)
		}
	}
}

// rankedBenchIndex is BenchmarkRankedByTermCount's fixture: the default
// 50 000-document collection, whose frequent terms' posting lists span
// many strides.
var rankedBenchIndex struct {
	c  *corpus.Collection
	ix *Index
}

// BenchmarkRankedByTermCount is a hot BM25TCMQ8 top-20 search by query
// length: efficiency queries (frequent terms) of 1 to 5 terms on a warm
// searcher over one baked segment, the plans whose scans a bound skips.
func BenchmarkRankedByTermCount(b *testing.B) {
	if rankedBenchIndex.ix == nil {
		c := corpus.Generate(corpus.DefaultConfig())
		ix, err := Build(c, DefaultBuildConfig())
		if err != nil {
			b.Fatal(err)
		}
		rankedBenchIndex.c, rankedBenchIndex.ix = c, ix
	}
	byLen := map[int][]corpus.Query{}
	for _, q := range rankedBenchIndex.c.EfficiencyQueries(2048, 9) {
		byLen[len(q.Terms)] = append(byLen[len(q.Terms)], q)
	}
	for n := 1; n <= 5; n++ {
		qs := byLen[n]
		if len(qs) == 0 {
			b.Fatalf("no %d-term query", n)
		}
		b.Run(fmt.Sprintf("terms=%d", n), func(b *testing.B) {
			s := NewSearcher(rankedBenchIndex.ix, 0)
			for _, q := range qs {
				if _, _, err := s.Search(q.Terms, 20, BM25TCMQ8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Search(qs[i%len(qs)].Terms, 20, BM25TCMQ8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBoundCacheSharedBySearchers: searchers over one snapshot fill and
// read its segments' stride-maxima caches at the same time, and each ranks
// as a searcher over the single index does.
func TestBoundCacheSharedBySearchers(t *testing.T) {
	c, ix := getIndex(t)
	qs := c.EfficiencyQueries(60, 43)
	ref := NewSearcher(ix, 0)
	want := make([][]Result, len(qs))
	for i, q := range qs {
		var err error
		if want[i], _, err = ref.Search(q.Terms, 10, BM25TCMQ8); err != nil {
			t.Fatal(err)
		}
	}
	snap := bakedSegments(t, c)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSnapshotSearcher(snap, 0)
			for i, q := range qs {
				got, _, err := s.Search(q.Terms, 10, BM25TCMQ8)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(resultIDs(got), resultIDs(want[i])) {
					t.Errorf("%v: %v, want %v", q.Terms, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
