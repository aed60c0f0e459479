package ir

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// segmentedSnapshot is the live index's shape: a large seed segment and
// three small appended ones, the first three virtual (their baked scores
// predate the last append, so materialized strategies score them at query
// time from tf and document lengths fetched from the document table). The
// last is baked at the whole collection's statistics, as the append that
// made it would have.
func segmentedSnapshot(tb testing.TB, c *corpus.Collection) *Snapshot {
	tb.Helper()
	n := len(c.DocLens)
	cuts := []int{0, n * 7 / 10, n * 8 / 10, n * 9 / 10, n}
	stats := CollectionStats(c)
	var segs []*Index
	for i := 0; i+1 < len(cuts); i++ {
		batch, err := c.Slice(cuts[i], cuts[i+1])
		if err != nil {
			tb.Fatal(err)
		}
		bc := DefaultBuildConfig()
		bc.DocIDBase = int64(cuts[i])
		bc.TablePrefix = fmt.Sprintf("seg%d/", i)
		if i+2 == len(cuts) {
			bc.Stats = stats
		}
		ix, err := Build(batch, bc)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, ix)
	}
	var lenSum int64
	for _, l := range c.DocLens {
		lenSum += int64(l)
	}
	snap, err := NewSnapshot(segs, SnapshotConfig{
		Virtual:    []bool{true, true, true, false},
		MergeStats: true,
		DocLenSum:  lenSum,
		HasBounds:  true,
		ScoreLo:    stats.ScoreLo,
		ScoreHi:    stats.ScoreHi,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// steadyShapes are the two snapshot shapes a serving searcher queries: one
// freshly baked segment, and the live index's seed-plus-appends.
func steadyShapes(tb testing.TB) (*corpus.Collection, []struct {
	name string
	snap *Snapshot
}) {
	c, ix := getIndex(tb)
	return c, []struct {
		name string
		snap *Snapshot
	}{
		{"fresh", SingleSnapshot(ix)},
		{"segmented", segmentedSnapshot(tb, c)},
	}
}

// warmSearcher returns a searcher that has already run every query once,
// so that caches are full and the context holds every vector and cursor a
// plan takes.
func warmSearcher(tb testing.TB, snap *Snapshot, qs []corpus.Query) *Searcher {
	tb.Helper()
	s := NewSnapshotSearcher(snap, 0)
	for _, q := range qs {
		if _, _, err := s.Search(q.Terms, 20, StrategyDefault); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkSearcherSteadyState is the cost of one query on a warm searcher,
// allocations included: the work a serving searcher repeats per request
// once caches are full.
func BenchmarkSearcherSteadyState(b *testing.B) {
	c, shapes := steadyShapes(b)
	qs := c.EfficiencyQueries(64, 5)
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			s := warmSearcher(b, sh.snap, qs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Search(qs[i%len(qs)].Terms, 20, StrategyDefault); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A repeated query on a warm searcher takes its operator vectors, join and
// top-k buffers and cursors from the searcher's context, so what it still
// allocates is plan nodes, batches, results and names: fewer than 100
// objects and 8 KB — one vector of 1024 int64 — per segment and query term
// (a term's plan holds several vectors, and a two-pass query runs two
// plans).
func TestSteadyStateQueryAllocations(t *testing.T) {
	c, shapes := steadyShapes(t)
	qs := c.EfficiencyQueries(16, 5)
	for _, sh := range shapes {
		s := warmSearcher(t, sh.snap, qs)
		for _, q := range qs {
			search := func() {
				if _, _, err := s.Search(q.Terms, 20, StrategyDefault); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 20
			allocs := testing.AllocsPerRun(runs, search)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				search()
			}
			runtime.ReadMemStats(&m1)
			bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
			units := sh.snap.NumSegments() * len(q.Terms)
			if limit := 100 * units; allocs > float64(limit) {
				t.Errorf("%s %v: %.0f allocations per query, want at most %d", sh.name, q.Terms, allocs, limit)
			}
			if limit := uint64(8<<10) * uint64(units); bytes > limit {
				t.Errorf("%s %v: %d bytes per query, want at most %d", sh.name, q.Terms, bytes, limit)
			}
		}
	}
}
