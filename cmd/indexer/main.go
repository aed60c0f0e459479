// Command indexer builds an index from a synthetic collection and reports
// its physical statistics: per-column sizes, bits per posting, the total
// on-disk size, the BM25 parameters and the quantization bounds. It is the
// index-construction half of the system (what the paper does once for
// GOV2 before running queries). With -out it also persists the index as an index directory
// (SEGMENTS.json over immutable segment subdirectories), so ir-search
// -index (or any OpenDir caller) can serve it later with zero corpus
// re-parsing; -append adds the generated collection as one MORE segment of
// the directory at -out — the offline ingest path a live deployment pairs
// with Engine.Refresh:
//
//	indexer -docs 200000 -out /data/ix               # initial build
//	indexer -docs 5000 -seed 9 -out /data/ix -append # nightly delta
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/storage"
)

func main() {
	var (
		docs      = flag.Int("docs", 50000, "collection size in documents")
		vocab     = flag.Int("vocab", 30000, "vocabulary size")
		avgLen    = flag.Int("avglen", 200, "average document length in tokens")
		seed      = flag.Int64("seed", 2007, "collection seed")
		out       = flag.String("out", "", "persist the index into this directory")
		appendSeg = flag.Bool("append", false, "append the generated collection as one new segment of the index directory at -out")
	)
	flag.Parse()

	cfg := corpus.DefaultConfig()
	cfg.NumDocs = *docs
	cfg.Vocab = *vocab
	cfg.AvgDocLen = *avgLen
	cfg.Seed = *seed

	fmt.Printf("generating collection: %d docs, %d-term vocabulary, avg length %d ...\n",
		cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen)
	c := corpus.Generate(cfg)
	fmt.Printf("collection: %d postings, realized avg doc length %.1f\n\n", c.NumPostings(), c.AvgDocLen())

	if *appendSeg {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "indexer: -append needs -out")
			os.Exit(1)
		}
		gen, err := storage.AppendSegment(*out, c, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexer:", err)
			os.Exit(1)
		}
		sm, err := storage.ReadSegments(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexer:", err)
			os.Exit(1)
		}
		var totalDocs, totalPostings int
		for _, e := range sm.Segments {
			totalDocs += e.Docs
			totalPostings += e.Postings
		}
		fmt.Printf("committed generation %d of %s: %d segments, %d docs, %d postings\n",
			gen, *out, len(sm.Segments), totalDocs, totalPostings)
		fmt.Printf("serve it with:  ir-search -index %s   (running engines pick it up via Refresh)\n", *out)
		return
	}

	ix, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexer:", err)
		os.Exit(1)
	}

	fmt.Printf("index built: %d postings over %d terms\n\n", ix.NumPostings(), len(ix.Terms))
	fmt.Printf("%-28s %14s %14s\n", "TD column", "size (MB)", "bits/posting")
	for _, col := range []struct{ name, col string }{
		{"docid (fixed 32-bit)", ir.ColDocID32},
		{"docid (PFOR-DELTA, 8-bit)", ir.ColDocIDC},
		{"tf (fixed 32-bit)", ir.ColTF32},
		{"tf (PFOR, 8-bit)", ir.ColTFC},
		{"score (float32)", ir.ColScore},
		{"score (quantized 8-bit)", ir.ColQScore},
	} {
		c, err := ix.TD.Column(col.col)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexer:", err)
			os.Exit(1)
		}
		fmt.Printf("%-28s %14.2f %14.2f\n", col.name,
			float64(c.DiskSize())/1e6, c.BitsPerValue())
	}
	fmt.Printf("\ndocument table D: %.2f MB for %d documents\n",
		float64(ix.D.DiskSize())/1e6, ix.NumDocs())
	fmt.Printf("total on-disk size: %.2f MB\n", float64(ix.Store.TotalSize())/1e6)
	fmt.Printf("BM25 parameters: k1=%.1f b=%.2f N=%.0f avgdl=%.1f\n",
		ix.Params.K1, ix.Params.B, ix.Params.NumDocs, ix.Params.AvgDocLn)
	fmt.Printf("score quantization bounds: [%.4f, %.4f] -> 256 buckets\n", ix.ScoreLo, ix.ScoreHi)

	if *out != "" {
		fmt.Printf("\npersisting index to %s ...\n", *out)
		if err := storage.WriteSegmentedIndex(*out, []*ir.Index{ix}); err != nil {
			fmt.Fprintln(os.Stderr, "indexer:", err)
			os.Exit(1)
		}
		fmt.Printf("persisted generation 1 of %s (grow it with -append)\n", *out)
		fmt.Printf("serve it with:  ir-search -index %s\n", *out)
	}
}
