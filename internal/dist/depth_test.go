package dist

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/serving"
)

// sameRanking fails t unless got equals want rank for rank, DocID and
// Score bit for bit.
func sameRanking(t *testing.T, what string, got, want []ir.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, centralized %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: (%d, %v), centralized (%d, %v)",
				what, i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
	}
}

// TestDefaultKMatchesCentralized: a query that leaves k zero gets the
// engine's DefaultK results from a cluster, not DefaultK per partition.
// The broker resolves k before fan-out, so the merge cuts at the same
// depth the centralized searcher does; a negative k is refused per query.
func TestDefaultKMatchesCentralized(t *testing.T) {
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)
	cl, err := StartCluster(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	for _, q := range c.PrecisionQueries(5, 11) {
		for _, strat := range []ir.Strategy{ir.BM25, ir.BM25TCMQ8, ir.BoolOR} {
			want, _, err := s.Search(q.Terms, serving.DefaultK, strat)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := brk.Search(q.Terms, 0, strat)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, fmt.Sprintf("%v k=0 %v", q.Terms, strat), got, want)
		}
	}
	res, _, err := brk.SearchMany(context.Background(), []Request{{Terms: []string{c.TermStrings[0]}, K: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatalf("k=-1 answered %d results, want a refusal", len(res[0].Results))
	}
}

// TestBoolDeepMatchesCentralized pins the boolean strategies to the
// centralized index at a depth above what one partition yields for most
// queries, and for queries carrying a term only one partition's dictionary
// holds: every other partition answers AND with nothing and OR with the
// other terms alone.
func TestBoolDeepMatchesCentralized(t *testing.T) {
	const k, parts = 500, 3
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)
	cl, err := StartCluster(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	queries := c.EfficiencyQueries(60, 5)
	local := localTerms(c, parts)
	if len(local) < 2 {
		t.Fatalf("only %d single-partition terms in the test collection", len(local))
	}
	for i, lt := range local[:2] {
		queries = append(queries, corpus.Query{Terms: []string{lt}},
			corpus.Query{Terms: append([]string{lt}, queries[i].Terms...)})
	}
	for _, q := range queries {
		for _, strat := range []ir.Strategy{ir.BoolAND, ir.BoolOR} {
			want, _, err := s.Search(q.Terms, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := brk.Search(q.Terms, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, fmt.Sprintf("%v k=%d %v", q.Terms, k, strat), got, want)
		}
	}
}

// localTerms returns the terms, in term-id order, whose postings all fall
// in one of the parts docid ranges StartCluster partitions c into.
func localTerms(c *corpus.Collection, parts int) []string {
	n := int64(len(c.DocLens))
	part := func(d int64) int64 { return d * int64(parts) / n }
	var out []string
	for id, list := range c.Postings {
		if len(list) == 0 {
			continue
		}
		if part(list[0].DocID) == part(list[len(list)-1].DocID) {
			out = append(out, c.TermStrings[id])
		}
	}
	return out
}
