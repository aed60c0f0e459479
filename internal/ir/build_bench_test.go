package ir

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkBuild measures ir.Build of the default generated collection
// (50 000 documents, seed 2007) and reports what it allocates per posting:
// the writer's three row arrays, the column bytes the SimDisk keeps, and
// whatever else the build leaves behind or throws away.
func BenchmarkBuild(b *testing.B) {
	coll := corpus.Generate(corpus.DefaultConfig())
	postings := coll.NumPostings()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Build(coll, DefaultBuildConfig())
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(postings), "B/posting")
}

// TestBuildAllocatesLittleMoreThanItKeeps bounds what a build allocates per
// posting: the writer's three 8-byte row arrays, the encoded columns the
// SimDisk keeps (about 16 bytes), and little else. A build that grows a
// whole-column temporary, or allocates fresh encoder buffers per chunk,
// goes past it. It runs alone (not parallel), so the allocation counter
// sees only the build; the race detector's own allocations skip it.
func TestBuildAllocatesLittleMoreThanItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 5000
	cfg.Vocab = 5000
	coll := corpus.Generate(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := Build(coll, DefaultBuildConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	perPosting := float64(after.TotalAlloc-before.TotalAlloc) / float64(coll.NumPostings())
	t.Logf("%d postings, %.1f B allocated per posting", coll.NumPostings(), perPosting)
	if perPosting > 60 {
		t.Errorf("build allocated %.1f B per posting, want at most 60", perPosting)
	}
}
