// Command ir-search is the "basic search" demonstrator: a google-like
// keyword search loop over a synthetic collection, with selectable search
// strategy, a per-query timeout, ranked results, and — alongside the
// results — the relational query plan that was executed, annotated with
// profiling information. It is built on the concurrency-safe Engine API.
//
//	ir-search -docs 20000 -timeout 5s
//	> information retrieval          # search with the default strategy
//	> :strategy BM25TCMQ8            # switch strategy
//	> :explain storing retrieval     # show the annotated plan
//	> :quit
//
// With -index it serves a persisted index directory (built by
// cmd/indexer -out or repro.SaveIndex) instead of generating and indexing
// a collection: startup reads only the manifest, and posting data streams
// in through the real buffer manager as queries arrive.
//
//	indexer -docs 50000 -out /tmp/ix
//	ir-search -index /tmp/ix -pool 268435456
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		docs     = flag.Int("docs", 20000, "collection size in documents")
		seed     = flag.Int64("seed", 2007, "collection seed")
		k        = flag.Int("k", 10, "results per query")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-query deadline (0 = none)")
		indexDir = flag.String("index", "", "serve this persisted index directory (skips generation and indexing)")
		pool     = flag.Int64("pool", 0, "buffer manager budget in bytes for -index mode (0 = unbounded)")
	)
	flag.Parse()

	var (
		c   *repro.Collection
		eng *repro.Engine
		err error
	)
	if *indexDir != "" {
		fmt.Printf("opening persisted index %s ...\n", *indexDir)
		eng, err = repro.OpenDir(*indexDir, repro.WithBufferPoolBytes(*pool))
	} else {
		cfg := repro.DefaultCollectionConfig()
		cfg.NumDocs = *docs
		cfg.Seed = *seed
		fmt.Printf("generating %d-document collection and index ...\n", cfg.NumDocs)
		c = repro.GenerateCollection(cfg)
		eng, err = repro.Open(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ir-search:", err)
		os.Exit(1)
	}
	defer eng.Close()
	strat := repro.BM25TCMQ8

	queryCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.WithCancel(context.Background())
	}

	if st := eng.SegmentStats(); st.Segments > 1 {
		fmt.Printf("ready: %d documents, %d postings in %d segments (generation %d)\n",
			eng.NumDocs(), eng.NumPostings(), st.Segments, st.Generation)
	} else {
		fmt.Printf("ready: %d documents, %d postings, %d distinct terms\n",
			eng.NumDocs(), eng.NumPostings(), len(eng.Index().Terms))
	}
	fmt.Printf("commands: ':strategy <name>', ':explain <terms>', ':sample', ':quit'\n")
	fmt.Printf("queries with AND/OR/parentheses use the boolean engine directly,\n")
	fmt.Printf("e.g.  information AND (storing OR retrieval)\n")
	fmt.Printf("strategy: %v\n\n", strat)

	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		switch {
		case line == ":quit" || line == ":q":
			return
		case line == ":sample":
			if c == nil {
				// Persisted mode has no generator; sample the range index
				// (the first segment's dictionary is plenty for a demo).
				n := 0
				for term := range eng.Index().Terms {
					fmt.Printf("  try: %s\n", term)
					if n++; n == 3 {
						break
					}
				}
				continue
			}
			qs := c.EfficiencyQueries(3, time.Now().UnixNano())
			for _, q := range qs {
				fmt.Printf("  try: %s\n", strings.Join(q.Terms, " "))
			}
		case strings.HasPrefix(line, ":strategy"):
			name := strings.TrimSpace(strings.TrimPrefix(line, ":strategy"))
			found := false
			for _, st := range repro.AllStrategies {
				if strings.EqualFold(st.String(), name) {
					strat = st
					found = true
					break
				}
			}
			if !found {
				fmt.Printf("unknown strategy %q; one of", name)
				for _, st := range repro.AllStrategies {
					fmt.Printf(" %v", st)
				}
				fmt.Println()
				continue
			}
			fmt.Printf("strategy: %v\n", strat)
		case strings.HasPrefix(line, ":explain"):
			terms := strings.Fields(strings.TrimPrefix(line, ":explain"))
			ctx, cancel := queryCtx()
			plan, err := eng.ExplainPlan(ctx, terms, *k, strat)
			cancel()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(plan)
		default:
			if isBoolQuery(line) {
				expr, err := repro.ParseBoolQuery(line)
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				ctx, cancel := queryCtx()
				results, st, err := eng.SearchBool(ctx, expr, *k)
				cancel()
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("boolean query %s\n", expr)
				for i, r := range results {
					fmt.Printf("%2d. %-22s docid=%d\n", i+1, r.Name, r.DocID)
				}
				if len(results) == 0 {
					fmt.Println("no results")
				}
				fmt.Printf("    [boolean; %.2f ms wall]\n", float64(st.Wall.Microseconds())/1000)
				continue
			}
			ctx, cancel := queryCtx()
			resp, err := eng.Search(ctx, repro.SearchRequest{
				Terms: strings.Fields(line), K: *k, Strategy: strat,
			})
			cancel()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for i, r := range resp.Hits {
				fmt.Printf("%2d. %-22s score=%.4f docid=%d\n", i+1, r.Name, r.Score, r.DocID)
			}
			if len(resp.Hits) == 0 {
				fmt.Println("no results")
			}
			fmt.Printf("    [%v; %.2f ms wall", resp.Strategy, float64(resp.Stats.Wall.Microseconds())/1000)
			if resp.Stats.SecondPass {
				fmt.Print(", second pass")
			}
			fmt.Println("]")
		}
	}
}

// isBoolQuery reports whether the input uses the §3.2 boolean language
// (explicit operators or parentheses) rather than plain keywords.
func isBoolQuery(line string) bool {
	if strings.ContainsAny(line, "()") {
		return true
	}
	for _, f := range strings.Fields(line) {
		if strings.EqualFold(f, "AND") || strings.EqualFold(f, "OR") {
			return true
		}
	}
	return false
}
