// Quickstart: generate a small collection, open a concurrency-safe Engine
// over it, run one ranked query under every Table 2 strategy (with a
// per-query deadline), print the annotated plan, then persist the index
// and reopen it from disk — the five-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()

	// 1. A small synthetic collection (a scaled-down GOV2 stand-in).
	cfg := repro.DefaultCollectionConfig()
	cfg.NumDocs = 5000
	coll := repro.GenerateCollection(cfg)
	fmt.Printf("collection: %d documents, %d postings\n", cfg.NumDocs, coll.NumPostings())

	// 2. Open the engine. The default index config stores every physical
	// column (uncompressed, PFOR-compressed, materialized, quantized) so
	// all strategies are available; the options size the buffer pool and
	// the searcher pool (= max concurrent queries).
	eng, err := repro.Open(coll,
		repro.WithBufferPoolBytes(256<<20),
		repro.WithVectorSize(1024),
		repro.WithSearchers(4))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Printf("engine: %.1f MB on disk, %d searchers\n\n",
		float64(eng.Index().Store.TotalSize())/1e6, eng.Searchers())

	// 3. Pick a realistic query from the built-in workload generator.
	query := coll.PrecisionQueries(1, 42)[0]
	fmt.Printf("query: %q (hidden topic %d)\n\n", strings.Join(query.Terms, " "), query.Topic)

	// 4. Search under every strategy of the paper's Table 2. Engine.Search
	// is safe for concurrent use and honors context deadlines; here each
	// query gets a generous one.
	for _, strat := range repro.AllStrategies {
		qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		resp, err := eng.Search(qctx, repro.SearchRequest{
			Terms: query.Terms, K: 5, Strategy: strat,
		})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		p5 := repro.PrecisionAtK(resp.Hits, coll.Qrels(query), 5)
		fmt.Printf("%-10v  p@5=%.2f  %6.2f ms wall", resp.Strategy, p5,
			float64(resp.Stats.Wall.Microseconds())/1000)
		if len(resp.Hits) > 0 {
			fmt.Printf("  top hit: %s (%.3f)", resp.Hits[0].Name, resp.Hits[0].Score)
		}
		fmt.Println()
	}

	// 5. Leaving the strategy unset runs the strongest one, BM25TCMQ8;
	// the response reports what actually executed.
	resp, err := eng.Search(ctx, repro.SearchRequest{Terms: query.Terms})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndefault request resolved to %v (%d hits)\n", resp.Strategy, len(resp.Hits))

	// 6. Show the relational plan behind the ranked query — IR as
	// relational algebra is the paper's point.
	plan, err := eng.ExplainPlan(ctx, query.Terms, 5, repro.BM25TC)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrelational plan for BM25TC:\n%s", plan)

	// 7. Persist the index and serve it back from real files: OpenDir
	// reads only the manifest, and posting data streams in through the
	// ColumnBM buffer manager as queries touch it — no collection, no
	// re-indexing. This is what a restart (or another process) does.
	dir, err := os.MkdirTemp("", "quickstart-index-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := repro.SaveIndex(dir, eng.Index()); err != nil {
		log.Fatal(err)
	}
	disk, err := repro.OpenDir(dir, repro.WithBufferPoolBytes(64<<20))
	if err != nil {
		log.Fatal(err)
	}
	defer disk.Close()
	resp2, err := disk.Search(ctx, repro.SearchRequest{Terms: query.Terms})
	if err != nil {
		log.Fatal(err)
	}
	same := len(resp2.Hits) == len(resp.Hits)
	for i := 0; same && i < len(resp2.Hits); i++ {
		same = resp2.Hits[i] == resp.Hits[i]
	}
	st := disk.Index().Cache.Stats()
	fmt.Printf("\npersisted to %s and reopened: identical top-k = %v\n", dir, same)
	fmt.Printf("buffer manager after one query: %d misses (cold chunks), %d bytes resident\n",
		st.Misses, st.Used)
}
