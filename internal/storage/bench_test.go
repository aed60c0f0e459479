package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
)

// BenchmarkAppendSegment measures one 500-document append onto a directory
// of a large seed segment plus three small ones, each op starting from the
// same generation (the commit is rolled back off the clock). "unheld" is
// an offline append (cmd/indexer -append) onto a directory another process
// wrote: every existing manifest is decoded once. "held" has the
// generation open, as a serving engine does: the appender reads the
// manifests the open segments hold. decodes/op is the manifest decode
// count per append.
func BenchmarkAppendSegment(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 12000
	cfg.Vocab = 20000
	cfg.AvgDocLen = 100
	coll := corpus.Generate(cfg)
	// Built under another path and moved: the memo holds none of dir's
	// manifests, as if another process had written it.
	dir := filepath.Join(b.TempDir(), "segix")
	for _, cut := range [][2]int{{0, 10000}, {10000, 10500}, {10500, 11000}, {11000, 11500}} {
		batch, err := coll.Slice(cut[0], cut[1])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := AppendSegment(dir+".build", batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := os.Rename(dir+".build", dir); err != nil {
		b.Fatal(err)
	}
	batch, err := coll.Slice(11500, 12000)
	if err != nil {
		b.Fatal(err)
	}
	committed, err := os.ReadFile(segmentsPath(dir))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		decodes := ManifestDecodes()
		for i := 0; i < b.N; i++ {
			if _, err := AppendSegment(dir, batch, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			sm, err := ReadSegments(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(filepath.Join(dir, sm.Segments[len(sm.Segments)-1].Name)); err != nil {
				b.Fatal(err)
			}
			if err := WriteFileAtomic(dir, ".segments-*", segmentsPath(dir), committed); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(ManifestDecodes()-decodes)/float64(b.N), "decodes/op")
	}
	b.Run("unheld", run)
	b.Run("held", func(b *testing.B) {
		snap, err := OpenSegmented(dir, colbm.NewManager(0))
		if err != nil {
			b.Fatal(err)
		}
		defer snap.Close()
		run(b)
	})
}
